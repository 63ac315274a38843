// Small string utilities shared across modules. All functions are pure and
// allocation-honest: anything returning std::string allocates, anything
// returning std::string_view only views the input.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ednsm::util {

// Split `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

// ASCII-only case transforms (DNS names are ASCII by construction here).
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

// Join `parts` with `sep` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Parse a non-negative decimal integer; returns false on overflow or any
// non-digit character (including an empty string).
[[nodiscard]] bool parse_u64(std::string_view s, unsigned long long& out) noexcept;

}  // namespace ednsm::util
