#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "util/bytes.h"
#include "util/fs.h"
#include "util/result.h"
#include "util/strings.h"

namespace ednsm {
namespace {

// ---- strings ---------------------------------------------------------------

TEST(Strings, SplitBasic) {
  const auto parts = util::split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = util::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = util::split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyInput) {
  const auto parts = util::split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitTrailingSeparator) {
  const auto parts = util::split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  hello  "), "hello");
  EXPECT_EQ(util::trim("\t\n x \r"), "x");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("   "), "");
  EXPECT_EQ(util::trim("nospace"), "nospace");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(util::to_lower("DNS.Google"), "dns.google");
  EXPECT_EQ(util::to_lower(""), "");
  EXPECT_EQ(util::to_lower("123-_"), "123-_");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(util::iequals("DoH", "dOh"));
  EXPECT_TRUE(util::iequals("", ""));
  EXPECT_FALSE(util::iequals("a", "ab"));
  EXPECT_FALSE(util::iequals("abc", "abd"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(util::starts_with("dns=abc", "dns="));
  EXPECT_FALSE(util::starts_with("dn", "dns="));
}

TEST(Strings, Join) {
  EXPECT_EQ(util::join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(util::join({}, "."), "");
  EXPECT_EQ(util::join({"only"}, "."), "only");
}

TEST(Strings, ParseU64Valid) {
  unsigned long long v = 0;
  EXPECT_TRUE(util::parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(util::parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ULL);
}

TEST(Strings, ParseU64Invalid) {
  unsigned long long v = 0;
  EXPECT_FALSE(util::parse_u64("", v));
  EXPECT_FALSE(util::parse_u64("-1", v));
  EXPECT_FALSE(util::parse_u64("12a", v));
  EXPECT_FALSE(util::parse_u64("18446744073709551616", v));  // 2^64
  EXPECT_FALSE(util::parse_u64(" 1", v));
}

// ---- bytes -----------------------------------------------------------------

TEST(Bytes, StringConversions) {
  const util::Bytes b = util::to_bytes("hello");
  EXPECT_EQ(util::as_string(b), "hello");
  EXPECT_TRUE(util::to_bytes("").empty());
}

TEST(Bytes, Fnv1aStability) {
  // Known FNV-1a vectors.
  EXPECT_EQ(util::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(util::fnv1a("dns.google"), util::fnv1a("dns.googlf"));
}

// ---- Result ----------------------------------------------------------------

Result<int> parse_positive(int x) {
  if (x > 0) return x;
  return Err{std::string("not positive")};
}

TEST(Result, ValueAccess) {
  auto r = parse_positive(5);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 5);
}

TEST(Result, ErrorAccess) {
  auto r = parse_positive(-1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), "not positive");
}

TEST(Result, WrongAccessThrows) {
  auto ok = parse_positive(1);
  EXPECT_THROW((void)ok.error(), BadResultAccess);
  auto bad = parse_positive(0);
  EXPECT_THROW((void)bad.value(), BadResultAccess);
}

TEST(Result, ValueOr) {
  EXPECT_EQ(parse_positive(3).value_or(9), 3);
  EXPECT_EQ(parse_positive(-3).value_or(9), 9);
}

TEST(Result, Map) {
  auto doubled = parse_positive(4).map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.has_value());
  EXPECT_EQ(doubled.value(), 8);

  auto failed = parse_positive(-4).map([](int v) { return v * 2; });
  EXPECT_FALSE(failed.has_value());
  EXPECT_EQ(failed.error(), "not positive");
}

TEST(Result, AndThen) {
  auto chained = parse_positive(4).and_then([](int v) { return parse_positive(v - 10); });
  ASSERT_FALSE(chained.has_value());

  auto ok = parse_positive(4).and_then([](int v) { return parse_positive(v + 10); });
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok.value(), 14);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok;
  EXPECT_TRUE(ok.has_value());
  Result<void> bad = Err{std::string("boom")};
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "boom");
}

TEST(Result, SameValueAndErrorType) {
  Result<std::string, std::string> ok = std::string("value");
  ASSERT_TRUE(ok.has_value());
  Result<std::string, std::string> bad = Err{std::string("error")};
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "error");
}

// ---- fs --------------------------------------------------------------------

// Renaming over a FIFO would turn it into a regular file: the writer must
// refuse the target, leave the FIFO in place and create no temp file.
TEST(Fs, AtomicWriterRefusesNonRegularTarget) {
  std::string dir = std::string(::testing::TempDir()) + "ednsm_fs_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string fifo = dir + "/target";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  util::AtomicFileWriter writer(fifo);
  writer.append("{}\n");
  const Result<void> committed = writer.commit();
  ASSERT_FALSE(committed);
  EXPECT_NE(committed.error().find("not a regular file"), std::string::npos)
      << committed.error();
  struct stat st {};
  ASSERT_EQ(::stat(fifo.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  const std::string tmp = fifo + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);

  // The convenience wrapper refuses it the same way; a regular file still
  // commits in the same directory.
  EXPECT_FALSE(util::write_file_atomic(fifo, "x"));
  const std::string regular = dir + "/regular.json";
  EXPECT_TRUE(util::write_file_atomic(regular, "{}\n"));
  EXPECT_TRUE(util::write_file_atomic(regular, "[]\n"));
  auto text = util::read_file(regular);
  ASSERT_TRUE(text);
  EXPECT_EQ(text.value(), "[]\n");

  ::unlink(regular.c_str());
  ::unlink(fifo.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace ednsm
