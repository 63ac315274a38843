// The option parser every ednsm command-line tool shares.
//
// A tool declares each flag once, in a table of cli::Flag (name, value
// placeholder or none for a boolean, one help line, value type). cli::run
// parses argv against the table, prints the usage generated from it for
// --help/-h (exit 0), and reports an unknown flag, a missing value, or a
// number that does not parse whole (std::from_chars: no "2x", no overflow)
// or is below the flag's minimum as "error: ..." plus the usage line on
// stderr, with the tool's usage exit code. Only a well-formed line reaches
// the tool.
//
// Grammar: "--name VALUE", "--name" for a boolean, and positionals (tokens
// not starting with '-') in order. A value may not start with "--". A flag
// may repeat: Args::all returns every value, the other getters the last.
//
// Standard library only, so ednsm_lint links it without the ednsm library.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ednsm::cli {

// What a flag's value must parse as. Booleans take no value; Text and comma
// lists take any value.
enum class Type { Text, Int, U64, Double };

struct Flag {
  std::string_view name;   // without the leading "--"
  std::string_view value;  // placeholder in the usage ("FILE"); empty = boolean
  std::string_view help;   // one line
  Type type = Type::Text;
  int min = std::numeric_limits<int>::min();  // lower bound of a Type::Int value
};

struct Command {
  std::string_view name;      // program name in the usage line
  std::string_view operands;  // positionals in the usage ("SHARD..."); empty = none allowed
  std::span<const Flag> flags;
  int usage_exit = 1;  // exit code for a malformed command line
};

// `text` as a T, or nullopt unless the whole token parses and, for a double,
// is finite.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

// A command line parsed against a flag table. Every value matches its flag's
// type, so the typed getters cannot fail; asking for a flag the table does
// not declare, or with the wrong type, is a bug in the tool and throws
// std::logic_error.
class Args {
 public:
  // Parses argv[1..argc) and prints nothing: a --help/-h request or the
  // first usage error is recorded, and the rest of the line is ignored.
  Args(const Command& command, int argc, const char* const* argv);

  [[nodiscard]] bool help() const noexcept { return help_; }
  // The first usage error (without "error: "); empty for a well-formed line.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  // Whether the flag was given (the only getter for a boolean).
  [[nodiscard]] bool has(std::string_view name) const;
  // The flag's last value, or nullptr when it was not given.
  [[nodiscard]] const std::string* get(std::string_view name) const;
  [[nodiscard]] std::string text(std::string_view name, std::string_view fallback) const;
  // Every value of a repeated flag, in command-line order.
  [[nodiscard]] std::vector<std::string> all(std::string_view name) const;
  // Comma-separated items of the last value, empty items dropped.
  [[nodiscard]] std::vector<std::string> list(std::string_view name) const;
  [[nodiscard]] int integer(std::string_view name, int fallback) const;
  [[nodiscard]] std::uint64_t u64(std::string_view name, std::uint64_t fallback) const;
  [[nodiscard]] double number(std::string_view name, double fallback) const;

 private:
  [[nodiscard]] const std::vector<std::string>* values(std::string_view name,
                                                      std::optional<Type> type) const;

  std::span<const Flag> flags_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::vector<std::string>, std::less<>> values_;
  bool help_ = false;
  std::string error_;
};

// The generated usage: "usage: NAME OPERANDS [--flag VALUE]..." wrapped at 80
// columns, plus one help line per flag when `details` is set.
[[nodiscard]] std::string usage(const Command& command, bool details);

// Reports a usage error the one way every tool does ("error: MESSAGE" and the
// usage line on stderr) and returns the command's usage exit code. Tools call
// it for the checks a flag table cannot express (a missing required flag, a
// malformed compound value).
int usage_error(const Command& command, std::string_view message);

// The tools' main(): parses argv, then prints --help or a usage error, or
// returns body(args).
int run(const Command& command, int argc, const char* const* argv, int (*body)(const Args&));

}  // namespace ednsm::cli
