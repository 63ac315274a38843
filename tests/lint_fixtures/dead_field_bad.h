// Fixture: public fields of structs in a src/ header that nothing names.
// Linted as src/util/dead_field_bad.h. Expected: hygiene-dead-field on
// Record::unused_count and on Widget::unused_label. Every other field is
// named elsewhere, static, private, or allowed; Widget's inline body, which
// ends without a ';', must not hide the field or the private section after
// it.
#pragma once

#include <string>

namespace fixture {

struct Record {
  int used_count = 0;
  int unused_count = 0;
  static constexpr int kLimit = 3;
  // ednsm-lint: allow(hygiene-dead-field) — Record.Allowed reads it.
  int allowed_count = 0;
};

class Widget {
 public:
  int size() const { return used_size; }
  std::string unused_label;
  int used_size = 0;

 private:
  int hidden_ = 0;
};

inline int total(const Record& r) { return r.used_count + Record::kLimit + Widget().size(); }

inline const int kTotal = total(Record{});

}  // namespace fixture
