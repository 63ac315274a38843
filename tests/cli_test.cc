#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.h"

namespace ednsm::cli {
namespace {

constexpr Flag kFlags[] = {
    {"out", "FILE", "output file"},
    {"json", "", "print JSON"},
    {"rounds", "N", "rounds", Type::Int},
    {"threads", "N", "worker threads", Type::Int, 1},
    {"seed", "S", "seed", Type::U64},
    {"tolerance-pct", "PCT", "tolerance", Type::Double},
    {"outage", "HOST:FROM:TO", "repeatable outage"},
    {"resolvers", "HOST,...", "resolvers"},
};
constexpr Command kWithOperands{"prog", "INPUT...", kFlags};
constexpr Command kNoOperands{"prog", "", kFlags};

Args parse_line(const Command& command, std::vector<const char*> tokens) {
  tokens.insert(tokens.begin(), "prog");
  return Args(command, static_cast<int>(tokens.size()), tokens.data());
}

std::string error_of(std::vector<const char*> tokens) {
  return parse_line(kWithOperands, std::move(tokens)).error();
}

TEST(Cli, AcceptsWellFormedLine) {
  const Args a = parse_line(kWithOperands, {"--out", "r.json", "--json", "--threads", "4",
                                            "--seed", "18446744073709551615",
                                            "--tolerance-pct", "2.5", "--rounds", "-3"});
  ASSERT_EQ(a.error(), "");
  EXPECT_FALSE(a.help());
  EXPECT_EQ(a.text("out", "x"), "r.json");
  EXPECT_TRUE(a.has("json"));
  EXPECT_EQ(a.integer("threads", 1), 4);
  EXPECT_EQ(a.u64("seed", 0), UINT64_MAX);
  EXPECT_DOUBLE_EQ(a.number("tolerance-pct", 15.0), 2.5);
  EXPECT_EQ(a.integer("rounds", 10), -3);
}

TEST(Cli, AbsentFlagsFallBack) {
  const Args a = parse_line(kWithOperands, {});
  ASSERT_EQ(a.error(), "");
  EXPECT_FALSE(a.has("json"));
  EXPECT_EQ(a.get("out"), nullptr);
  EXPECT_EQ(a.text("out", "results.json"), "results.json");
  EXPECT_EQ(a.integer("threads", 1), 1);
  EXPECT_EQ(a.u64("seed", 7), 7u);
  EXPECT_DOUBLE_EQ(a.number("tolerance-pct", 15.0), 15.0);
  EXPECT_TRUE(a.list("resolvers").empty());
  EXPECT_TRUE(a.all("outage").empty());
}

TEST(Cli, RejectsUnknownFlag) {
  EXPECT_EQ(error_of({"--thread", "4"}), "unknown flag --thread");
  EXPECT_EQ(error_of({"-x"}), "unknown flag -x");
  EXPECT_EQ(error_of({"--"}), "unknown flag --");
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_EQ(error_of({"--out"}), "--out requires a value");
  EXPECT_EQ(error_of({"in.json", "--threads"}), "--threads requires a value");
  // A following flag is never taken as the value.
  EXPECT_EQ(error_of({"--out", "--json"}), "--out requires a value");
}

TEST(Cli, RejectsMalformedNumbers) {
  for (const char* bad : {"2x", "abc", "", " 4", "4 ", "+4", "0x10", "4.0"}) {
    EXPECT_EQ(error_of({"--rounds", bad}),
              "--rounds wants an integer (got " + std::string(bad) + ")")
        << bad;
  }
  for (const char* bad : {"abc", "-1", "1e3", "12a"}) {
    EXPECT_EQ(error_of({"--seed", bad}),
              "--seed wants a non-negative integer (got " + std::string(bad) + ")")
        << bad;
  }
  for (const char* bad : {"abc", "1.5x", "nan", "inf", ""}) {
    EXPECT_EQ(error_of({"--tolerance-pct", bad}),
              "--tolerance-pct wants a number (got " + std::string(bad) + ")")
        << bad;
  }
}

TEST(Cli, RejectsOverflowingNumbers) {
  EXPECT_EQ(error_of({"--rounds", "2147483648"}), "--rounds wants an integer (got 2147483648)");
  EXPECT_EQ(error_of({"--seed", "18446744073709551616"}),
            "--seed wants a non-negative integer (got 18446744073709551616)");
  EXPECT_EQ(error_of({"--tolerance-pct", "1e999"}), "--tolerance-pct wants a number (got 1e999)");
}

TEST(Cli, RejectsNumbersBelowTheMinimum) {
  EXPECT_EQ(error_of({"--threads", "0"}), "--threads must be at least 1 (got 0)");
  EXPECT_EQ(error_of({"--threads", "-4"}), "--threads must be at least 1 (got -4)");
  EXPECT_EQ(error_of({"--threads", "1"}), "");
}

TEST(Cli, RepeatedFlagKeepsEveryValueInOrder) {
  const Args a = parse_line(kWithOperands, {"--outage", "a:1:2", "--outage", "b:3:4"});
  ASSERT_EQ(a.error(), "");
  EXPECT_EQ(a.all("outage"), (std::vector<std::string>{"a:1:2", "b:3:4"}));
  EXPECT_EQ(*a.get("outage"), "b:3:4");  // scalar getters read the last one
}

TEST(Cli, PositionalsKeepTheirOrder) {
  const Args a = parse_line(kWithOperands, {"a.json", "--json", "b.json", "--out", "o", "c"});
  ASSERT_EQ(a.error(), "");
  EXPECT_EQ(a.positionals(), (std::vector<std::string>{"a.json", "b.json", "c"}));
}

TEST(Cli, RejectsPositionalsWhenNoneAreDeclared) {
  EXPECT_EQ(parse_line(kNoOperands, {"stray"}).error(), "unexpected argument stray");
  // A value after a boolean is named as such.
  EXPECT_EQ(parse_line(kNoOperands, {"--json", "0"}).error(),
            "unexpected argument 0 (--json takes no value)");
}

TEST(Cli, HelpStopsParsing) {
  for (const char* help : {"--help", "-h"}) {
    const Args a = parse_line(kNoOperands, {"--json", help, "--bogus"});
    EXPECT_TRUE(a.help()) << help;
    EXPECT_EQ(a.error(), "") << help;
  }
}

TEST(Cli, ListSplitsOnCommasAndDropsEmptyItems) {
  const Args a = parse_line(kWithOperands, {"--resolvers", ",dns.google,,ordns.he.net,"});
  ASSERT_EQ(a.error(), "");
  EXPECT_EQ(a.list("resolvers"), (std::vector<std::string>{"dns.google", "ordns.he.net"}));
}

TEST(Cli, GettersRejectUndeclaredFlagsAndWrongTypes) {
  const Args a = parse_line(kWithOperands, {});
  EXPECT_THROW((void)a.has("outt"), std::logic_error);
  EXPECT_THROW((void)a.get("threads"), std::logic_error);
  EXPECT_THROW((void)a.integer("out", 0), std::logic_error);
  EXPECT_THROW((void)a.get("json"), std::logic_error);  // a boolean has no value
}

TEST(Cli, UsageListsEveryDeclaredFlag) {
  const std::string brief = usage(kWithOperands, false);
  const std::string full = usage(kWithOperands, true);
  EXPECT_EQ(brief.rfind("usage: prog INPUT... [--out FILE] [--json]", 0), 0u) << brief;
  EXPECT_EQ(full.rfind(brief, 0), 0u);  // --help starts with the usage line
  for (const Flag& flag : kFlags) {
    const std::string spelled =
        "--" + std::string(flag.name) + (flag.value.empty() ? "" : " " + std::string(flag.value));
    EXPECT_NE(brief.find("[" + spelled + "]"), std::string::npos) << spelled;
    EXPECT_NE(full.find("  " + spelled + " "), std::string::npos) << spelled;
    EXPECT_NE(full.find(std::string(flag.help)), std::string::npos) << flag.help;
  }
  EXPECT_NE(full.find("-h, --help"), std::string::npos);
  std::istringstream lines(brief);
  for (std::string line; std::getline(lines, line);) EXPECT_LE(line.size(), 80u) << line;
}

}  // namespace
}  // namespace ednsm::cli
