#include "cli.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace ednsm::cli {

namespace {

const Flag* find(std::span<const Flag> flags, std::string_view name) {
  for (const Flag& flag : flags) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

// "--name VALUE", or "--name" for a boolean.
std::string spelled(const Flag& flag) {
  std::string out = "--" + std::string(flag.name);
  if (!flag.value.empty()) out += " " + std::string(flag.value);
  return out;
}

// Why `value` is not a valid value for `flag`; empty when it is.
std::string check(const Flag& flag, const std::string& value) {
  const std::string name = "--" + std::string(flag.name);
  const std::string got = " (got " + value + ")";
  if (flag.type == Type::Int) {
    const std::optional<int> n = parse_number<int>(value);
    if (!n) return name + " wants an integer" + got;
    if (*n < flag.min) return name + " must be at least " + std::to_string(flag.min) + got;
  }
  if (flag.type == Type::U64 && !parse_number<std::uint64_t>(value)) {
    return name + " wants a non-negative integer" + got;
  }
  if (flag.type == Type::Double && !parse_number<double>(value)) {
    return name + " wants a number" + got;
  }
  return {};
}

}  // namespace

Args::Args(const Command& command, int argc, const char* const* argv) : flags_(command.flags) {
  const Flag* boolean = nullptr;  // the previous token, when it was a boolean flag
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token == "--help" || token == "-h") {
      help_ = true;
      return;
    }
    if (!token.starts_with('-')) {
      if (command.operands.empty()) {
        error_ = "unexpected argument " + std::string(token);
        if (boolean != nullptr) error_ += " (--" + std::string(boolean->name) + " takes no value)";
        return;
      }
      positionals_.emplace_back(token);
      boolean = nullptr;
      continue;
    }
    const Flag* flag = token.starts_with("--") ? find(flags_, token.substr(2)) : nullptr;
    if (flag == nullptr) {
      error_ = "unknown flag " + std::string(token);
      return;
    }
    std::string value;
    if (!flag->value.empty()) {
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        error_ = std::string(token) + " requires a value";
        return;
      }
      value = argv[++i];
      error_ = check(*flag, value);
      if (!error_.empty()) return;
    }
    boolean = flag->value.empty() ? flag : nullptr;
    values_[std::string(flag->name)].push_back(std::move(value));
  }
}

// `type` is the getter's: nullopt for has(), which accepts any declared flag;
// otherwise the flag must take a value of exactly that type.
const std::vector<std::string>* Args::values(std::string_view name,
                                             std::optional<Type> type) const {
  const Flag* flag = find(flags_, name);
  if (flag == nullptr || (type && (flag->value.empty() || flag->type != *type))) {
    throw std::logic_error("cli: --" + std::string(name) + " is not declared for this getter");
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Args::has(std::string_view name) const { return values(name, std::nullopt) != nullptr; }

const std::string* Args::get(std::string_view name) const {
  const std::vector<std::string>* v = values(name, Type::Text);
  return v == nullptr ? nullptr : &v->back();
}

std::string Args::text(std::string_view name, std::string_view fallback) const {
  const std::string* value = get(name);
  return value != nullptr ? *value : std::string(fallback);
}

std::vector<std::string> Args::all(std::string_view name) const {
  const std::vector<std::string>* v = values(name, Type::Text);
  return v == nullptr ? std::vector<std::string>{} : *v;
}

std::vector<std::string> Args::list(std::string_view name) const {
  std::vector<std::string> items;
  const std::string* csv = get(name);
  if (csv == nullptr) return items;
  for (std::size_t start = 0; start <= csv->size();) {
    const std::size_t comma = std::min(csv->find(',', start), csv->size());
    if (comma > start) items.push_back(csv->substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

int Args::integer(std::string_view name, int fallback) const {
  const std::vector<std::string>* v = values(name, Type::Int);
  return v == nullptr ? fallback : *parse_number<int>(v->back());
}

std::uint64_t Args::u64(std::string_view name, std::uint64_t fallback) const {
  const std::vector<std::string>* v = values(name, Type::U64);
  return v == nullptr ? fallback : *parse_number<std::uint64_t>(v->back());
}

double Args::number(std::string_view name, double fallback) const {
  const std::vector<std::string>* v = values(name, Type::Double);
  return v == nullptr ? fallback : *parse_number<double>(v->back());
}

std::string usage(const Command& command, bool details) {
  const std::string head = "usage: " + std::string(command.name);
  std::string out = head;
  std::size_t line_start = 0;
  const auto add = [&](const std::string& item) {
    if (out.size() - line_start + 1 + item.size() > 80) {
      out += '\n';
      line_start = out.size();
      out.append(head.size(), ' ');
    }
    out += ' ' + item;
  };
  if (!command.operands.empty()) add(std::string(command.operands));
  for (const Flag& flag : command.flags) add("[" + spelled(flag) + "]");
  out += '\n';
  if (!details) return out;

  const std::string help_flag = "-h, --help";
  std::size_t width = help_flag.size();
  for (const Flag& flag : command.flags) width = std::max(width, spelled(flag).size());
  const auto line = [&](const std::string& left, std::string_view help) {
    out += "  " + left + std::string(width + 2 - left.size(), ' ') + std::string(help) + '\n';
  };
  out += '\n';
  for (const Flag& flag : command.flags) line(spelled(flag), flag.help);
  line(help_flag, "print this help and exit");
  return out;
}

int usage_error(const Command& command, std::string_view message) {
  std::fprintf(stderr, "error: %.*s\n%s", static_cast<int>(message.size()), message.data(),
               usage(command, false).c_str());
  return command.usage_exit;
}

int run(const Command& command, int argc, const char* const* argv, int (*body)(const Args&)) {
  const Args args(command, argc, argv);
  if (args.help()) {
    std::fputs(usage(command, true).c_str(), stdout);
    return 0;
  }
  if (!args.error().empty()) return usage_error(command, args.error());
  return body(args);
}

}  // namespace ednsm::cli
