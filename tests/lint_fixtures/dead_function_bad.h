// Fixture: functions declared in a src/ header that nothing references.
// Linted as src/util/dead_function_bad.h. Expected: hygiene-dead-function on
// unused_helper and on Gadget::unused_method; everything else is referenced
// or exempt (constructor, destructor, operators).
#pragma once

namespace fixture {

int used_helper(int x);
int unused_helper(int x);

class Gadget {
 public:
  Gadget();
  ~Gadget();
  bool operator==(const Gadget&) const = default;
  explicit operator bool() const { return true; }

  int used_method() const { return used_helper(1); }
  int unused_method() const;
};

inline const int kAnswer = Gadget().used_method();

}  // namespace fixture
