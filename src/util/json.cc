#include "util/json.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace ednsm::util {

namespace {

const Json kNull{};

// Numbers print as this layer always printed them with snprintf: "%.0f" for
// integral values below 1e15, "%.17g" (which round-trips) for the rest. With
// an explicit precision, std::to_chars is defined as printf in the C locale,
// so general/17 gives the "%.17g" bytes without depending on LC_NUMERIC.
// "%.0f" of an integral double below 1e15 is its exact integer value, so
// the integer overload gives those bytes (several times faster than
// fixed/0); only -0 needs its sign spelled out.
void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out.append("null");  // JSON has no NaN/Inf; null is the least-wrong choice
    return;
  }
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    if (d == 0 && std::signbit(d)) {
      out.append("-0");
      return;
    }
    out.append(buf, std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d)).ptr);
    return;
  }
  out.append(buf, std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17).ptr);
}

// Appends `s` escaped, copying runs of plain bytes whole.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

[[noreturn]] void misuse(const std::string& what) {
  throw std::logic_error("JsonWriter: " + what);
}

// ---- parser -----------------------------------------------------------------

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;  // open arrays/objects around pos

  // Enters an array or object; false past Json::kMaxDepth. Every return
  // after a successful enter() passes through leave().
  [[nodiscard]] bool enter() { return ++depth <= Json::kMaxDepth; }
  [[nodiscard]] Result<Json> leave(Result<Json> r) {
    --depth;
    return r;
  }
  [[nodiscard]] static Err<std::string> too_deep() {
    return Err{"json: nesting deeper than " + std::to_string(Json::kMaxDepth)};
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] Result<Json> value() {
    skip_ws();
    if (pos >= text.size()) return Err{std::string("json: unexpected end")};
    const char c = text[pos];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return Err{s.error()};
      return Json(std::move(s).value());
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (text.substr(pos, 4) == "null") {
        pos += 4;
        return Json(nullptr);
      }
      return Err{std::string("json: bad literal")};
    }
    return number();
  }

  [[nodiscard]] Result<Json> boolean() {
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      return Json(true);
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      return Json(false);
    }
    return Err{std::string("json: bad literal")};
  }

  [[nodiscard]] Result<Json> number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' || text[pos] == 'e' ||
            text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return Err{std::string("json: expected value")};
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Err{std::string("json: bad number")};
    return Json(d);
  }

  [[nodiscard]] Result<std::string> string() {
    if (!eat('"')) return Err{std::string("json: expected string")};
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) break;
        const char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) return Err{std::string("json: bad \\u escape")};
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err{std::string("json: bad \\u escape")};
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err{std::string("json: bad escape")};
        }
      } else {
        out.push_back(c);
      }
    }
    return Err{std::string("json: unterminated string")};
  }

  [[nodiscard]] Result<Json> array() {
    if (!eat('[')) return Err{std::string("json: expected array")};
    if (!enter()) return too_deep();
    return leave(array_body());
  }

  [[nodiscard]] Result<Json> array_body() {
    JsonArray arr;
    skip_ws();
    if (eat(']')) return Json(std::move(arr));
    while (true) {
      auto v = value();
      if (!v) return Err{v.error()};
      arr.push_back(std::move(v).value());
      skip_ws();
      if (eat(']')) return Json(std::move(arr));
      if (!eat(',')) return Err{std::string("json: expected ',' in array")};
    }
  }

  [[nodiscard]] Result<Json> object() {
    if (!eat('{')) return Err{std::string("json: expected object")};
    if (!enter()) return too_deep();
    return leave(object_body());
  }

  [[nodiscard]] Result<Json> object_body() {
    JsonObject obj;
    skip_ws();
    if (eat('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return Err{key.error()};
      skip_ws();
      if (!eat(':')) return Err{std::string("json: expected ':'")};
      auto v = value();
      if (!v) return Err{v.error()};
      obj.emplace(std::move(key).value(), std::move(v).value());
      skip_ws();
      if (eat('}')) return Json(std::move(obj));
      if (!eat(',')) return Err{std::string("json: expected ',' in object")};
    }
  }
};

}  // namespace

const Json& Json::at(const std::string& key) const {
  if (!is_object()) return kNull;
  const auto it = as_object().find(key);
  return it == as_object().end() ? kNull : it->second;
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter w(out, indent);
  w.value(*this);
  return out;
}

Result<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return Err{v.error()};
  p.skip_ws();
  if (p.pos != text.size()) return Err{std::string("json: trailing characters")};
  return v;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

// ---- writer -----------------------------------------------------------------

JsonWriter::JsonWriter(std::string& out, int indent) : out_(out), indent_(indent) {}

JsonWriter::JsonWriter(std::function<void(std::string_view)> sink, int indent)
    : out_(buffer_), sink_(std::move(sink)), indent_(indent) {
  buffer_.reserve(kChunkBytes + kChunkBytes / 4);
}

void JsonWriter::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  out_.push_back('\n');
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

// Structure checks, then the separator an array element needs. An object
// member's separator went out with its key.
void JsonWriter::before_value() {
  if (depth_ == 0) {
    if (done_) misuse("a second top-level value");
    return;
  }
  Frame& f = top();
  if (f.object) {
    if (!f.key_pending) misuse("a value in an object where a key is due");
    f.key_pending = false;
    return;
  }
  if (!f.empty) out_.push_back(',');
  f.empty = false;
  newline(depth_);
}

void JsonWriter::after_value() {
  if (depth_ == 0) done_ = true;
  if (sink_ && out_.size() >= kChunkBytes) {
    sink_(out_);
    out_.clear();
  }
}

void JsonWriter::open(bool object, char bracket) {
  before_value();
  out_.push_back(bracket);
  if (depth_ == stack_.size()) stack_.emplace_back();
  Frame& f = stack_[depth_++];
  f.object = object;
  f.empty = true;
  f.key_pending = false;
  f.last_key.clear();
}

void JsonWriter::close(bool object, char bracket) {
  if (depth_ == 0 || top().object != object) {
    misuse(object ? "end_object without an open object" : "end_array without an open array");
  }
  if (top().key_pending) misuse("end_object after a key without a value");
  const bool empty = top().empty;
  --depth_;
  if (!empty) newline(depth_);
  out_.push_back(bracket);
  after_value();
}

void JsonWriter::begin_object() { open(true, '{'); }
void JsonWriter::end_object() { close(true, '}'); }
void JsonWriter::begin_array() { open(false, '['); }
void JsonWriter::end_array() { close(false, ']'); }

void JsonWriter::key(std::string_view k) {
  if (depth_ == 0 || !top().object) misuse("a key outside an object");
  Frame& f = top();
  if (f.key_pending) misuse("a key where a value is due");
  if (!f.empty && k <= f.last_key) {
    misuse("key \"" + std::string(k) + "\" after \"" + f.last_key +
           "\" (keys must ascend, as in a JsonObject)");
  }
  f.last_key.assign(k);
  write_key(k);
}

// A JsonObject's keys ascend by construction, so value() writes them
// through here without the check.
void JsonWriter::write_key(std::string_view k) {
  Frame& f = top();
  if (!f.empty) out_.push_back(',');
  f.empty = false;
  f.key_pending = true;
  newline(depth_);
  out_.push_back('"');
  append_escaped(out_, k);
  out_.append(indent_ > 0 ? "\": " : "\":");
}

void JsonWriter::value(const Json& v) {
  if (v.is_array()) {
    begin_array();
    for (const Json& e : v.as_array()) value(e);
    end_array();
    return;
  }
  if (v.is_object()) {
    begin_object();
    for (const auto& [k, e] : v.as_object()) {
      write_key(k);
      value(e);
    }
    end_object();
    return;
  }
  if (v.is_null()) {
    before_value();
    out_.append("null");
    after_value();
  } else if (v.is_bool()) {
    boolean(v.as_bool());
  } else if (v.is_number()) {
    number(v.as_number());
  } else {
    string(v.as_string());
  }
}

void JsonWriter::number(double d) {
  before_value();
  append_number(out_, d);
  after_value();
}

void JsonWriter::boolean(bool b) {
  before_value();
  out_.append(b ? "true" : "false");
  after_value();
}

void JsonWriter::string(std::string_view s) {
  before_value();
  out_.push_back('"');
  append_escaped(out_, s);
  out_.push_back('"');
  after_value();
}

void JsonWriter::finish() {
  if (!done_ || depth_ != 0) misuse("finish before the document is complete");
  if (sink_ && !out_.empty()) {
    sink_(out_);
    out_.clear();
  }
}

}  // namespace ednsm::util
