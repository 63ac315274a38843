// Minimal JSON document model, writer, and parser.
//
// The paper's tool "writes the results to a JSON file"; this is that layer,
// implemented from scratch (no third-party dependencies are available in the
// build environment). Supports the full JSON grammar except for \u escapes
// beyond the BMP-ASCII range (emitted as-is; parsed literally), which the
// result schema never produces.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.h"

namespace ednsm::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;  // sorted keys: stable output

class Json {
 public:
  // Deepest array/object nesting parse() accepts; the repo's own documents
  // stay under 10 levels. The bound keeps a hostile file from overflowing
  // the recursive parser's stack.
  static constexpr int kMaxDepth = 256;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  // Typed accessors; throw std::bad_variant_access on type mismatch (caller bug).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  [[nodiscard]] JsonObject& as_object() { return std::get<JsonObject>(value_); }

  // Object field access; returns null Json for missing keys.
  [[nodiscard]] const Json& at(const std::string& key) const;

  [[nodiscard]] bool operator==(const Json&) const = default;

  // Serialize. indent 0 = compact; otherwise pretty-printed.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // Rejects malformed text and nesting deeper than kMaxDepth.
  [[nodiscard]] static Result<Json> parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

// Incremental writer: emits exactly the bytes Json::dump emits for the same
// document, so a large array can be written one element at a time instead
// of first building the whole document as a Json tree. Json::dump is built
// on it, so this is the only JSON formatter.
//
// Keys of a streamed object must arrive in strictly ascending order, the
// order a JsonObject (a std::map) iterates in; anything else throws
// std::logic_error, as does a call the document structure does not allow (a
// key outside an object, a value where a key is due, an unbalanced end_*,
// a second top-level value). The checks run in every build: a streamed
// writer whose layout drifted from its to_json() reference would otherwise
// write a file that still parses but no longer matches what the DOM path
// writes byte for byte.
class JsonWriter {
 public:
  // Pending bytes a streaming writer holds before handing them to its sink.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  // Appends to `out`.
  explicit JsonWriter(std::string& out, int indent = 0);
  // Streams: bytes collect in a buffer that goes to `sink` whenever a value
  // completes with kChunkBytes or more pending, and at finish().
  JsonWriter(std::function<void(std::string_view)> sink, int indent = 0);
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view k);
  void value(const Json& v);

  // Scalars without a Json temporary: each emits exactly the bytes
  // value(Json(x)) emits.
  void number(double d);
  void boolean(bool b);
  void string(std::string_view s);

  // An array of one element per item. An item that has its own
  // write_json(JsonWriter&) streams itself, so it never exists as a Json
  // tree; any other item comes from its to_json(), one tree at a time.
  template <typename Range>
  void array_of(const Range& items) {
    begin_array();
    for (const auto& item : items) {
      if constexpr (requires { item.write_json(*this); }) {
        item.write_json(*this);
      } else {
        value(item.to_json());
      }
    }
    end_array();
  }

  // Throws unless exactly one complete value was written, then hands any
  // buffered bytes to the sink.
  void finish();

 private:
  struct Frame {
    bool object = false;
    bool empty = true;
    bool key_pending = false;  // object: key written, value due
    std::string last_key;      // object: the last key passed to key()
  };

  void open(bool object, char bracket);
  void close(bool object, char bracket);
  void before_value();
  void after_value();
  void write_key(std::string_view k);
  void newline(std::size_t depth);
  [[nodiscard]] Frame& top() { return stack_[depth_ - 1]; }

  std::string buffer_;  // streaming form only
  std::string& out_;
  std::function<void(std::string_view)> sink_;
  int indent_;
  // Open containers are stack_[0, depth_). Closed frames stay allocated, so
  // the next container at that depth reuses its last_key buffer: a streamed
  // array of records allocates nothing per record.
  std::vector<Frame> stack_;
  std::size_t depth_ = 0;
  bool done_ = false;
};

// Escape a string per JSON rules (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace ednsm::util
