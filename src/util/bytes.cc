#include "util/bytes.h"

#include <cstdio>

namespace ednsm::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

// Value of a lowercase hex digit (callers validate the digit set first).
int hex_value(char c) noexcept { return c <= '9' ? c - '0' : c - 'a' + 10; }
}  // namespace

std::string as_string(std::span<const std::uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string u64_to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

Result<std::uint64_t> u64_from_hex(std::string_view s) {
  if (s.size() != 16 || s.find_first_not_of(kHexDigits) != std::string_view::npos) {
    return Err{"expected 16 lowercase hex digits: " + std::string(s)};
  }
  std::uint64_t v = 0;
  for (const char c : s) v = (v << 4) | static_cast<std::uint64_t>(hex_value(c));
  return v;
}

}  // namespace ednsm::util
