#include <gtest/gtest.h>

#include "dns/name.h"
#include "dns/wire.h"

namespace ednsm::dns {
namespace {

TEST(Name, ParseBasic) {
  auto n = Name::parse("dns.google");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n.value().labels().size(), 2u);
  EXPECT_EQ(n.value().to_string(), "dns.google");
}

TEST(Name, RootForms) {
  for (const char* text : {"", "."}) {
    auto n = Name::parse(text);
    ASSERT_TRUE(n.has_value()) << text;
    EXPECT_TRUE(n.value().is_root());
    EXPECT_EQ(n.value().to_string(), ".");
    EXPECT_EQ(n.value().wire_length(), 1u);
  }
}

TEST(Name, TrailingDotAccepted) {
  auto a = Name::parse("example.com.");
  auto b = Name::parse("example.com");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a.value(), b.value());
}

TEST(Name, CaseInsensitiveEquality) {
  auto a = Name::parse("DNS.Google");
  auto b = Name::parse("dns.google");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.value().hash(), b.value().hash());
}

TEST(Name, RejectsEmptyLabel) {
  EXPECT_FALSE(Name::parse("a..b").has_value());
  EXPECT_FALSE(Name::parse(".a").has_value());
  EXPECT_FALSE(Name::parse("..").has_value());
}

TEST(Name, RejectsBadCharacters) {
  EXPECT_FALSE(Name::parse("exa mple.com").has_value());
  EXPECT_FALSE(Name::parse("exam!ple.com").has_value());
  EXPECT_TRUE(Name::parse("_dns-sd._udp.local").has_value());  // service labels ok
}

TEST(Name, LabelLengthLimit) {
  const std::string label63(63, 'a');
  EXPECT_TRUE(Name::parse(label63 + ".com").has_value());
  const std::string label64(64, 'a');
  EXPECT_FALSE(Name::parse(label64 + ".com").has_value());
}

TEST(Name, TotalLengthLimit) {
  // 4 * (63+1) + 1 = 257 > 255 -> reject; 3 labels of 63 ok (193).
  const std::string l(63, 'x');
  EXPECT_TRUE(Name::parse(l + "." + l + "." + l).has_value());
  EXPECT_FALSE(Name::parse(l + "." + l + "." + l + "." + l).has_value());
}

TEST(Name, WireLength) {
  auto n = Name::parse("abc.de");
  ASSERT_TRUE(n.has_value());
  // 1+3 + 1+2 + 1 = 8
  EXPECT_EQ(n.value().wire_length(), 8u);
}

// ---- wire encoding + compression ---------------------------------------------

TEST(NameWire, UncompressedRoundTrip) {
  WireWriter w;
  NameCompressor comp;
  comp.write(w, Name::parse("www.example.com").value());

  WireReader r(w.data());
  auto decoded = read_name(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().to_string(), "www.example.com");
  EXPECT_TRUE(r.at_end());
}

TEST(NameWire, RootRoundTrip) {
  WireWriter w;
  NameCompressor comp;
  comp.write(w, Name());
  EXPECT_EQ(w.size(), 1u);
  WireReader r(w.data());
  auto decoded = read_name(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded.value().is_root());
}

TEST(NameWire, CompressionEmitsPointer) {
  WireWriter w;
  NameCompressor comp;
  comp.write(w, Name::parse("www.example.com").value());
  const std::size_t first_len = w.size();
  comp.write(w, Name::parse("mail.example.com").value());
  // Second name should be: 1+4 ("mail") + 2 (pointer) = 7 bytes.
  EXPECT_EQ(w.size() - first_len, 7u);

  WireReader r(w.data());
  auto first = read_name(r);
  ASSERT_TRUE(first.has_value());
  auto second = read_name(r);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second.value().to_string(), "mail.example.com");
  EXPECT_TRUE(r.at_end());
}

TEST(NameWire, FullNamePointerForRepeat) {
  WireWriter w;
  NameCompressor comp;
  const Name n = Name::parse("a.b.c").value();
  comp.write(w, n);
  const std::size_t first_len = w.size();
  comp.write(w, n);
  EXPECT_EQ(w.size() - first_len, 2u);  // just a pointer

  WireReader r(w.data());
  (void)read_name(r);
  auto again = read_name(r);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again.value(), n);
}

TEST(NameWire, CompressionIsCaseInsensitive) {
  WireWriter w;
  NameCompressor comp;
  comp.write(w, Name::parse("WWW.Example.COM").value());
  const std::size_t first_len = w.size();
  comp.write(w, Name::parse("www.example.com").value());
  EXPECT_EQ(w.size() - first_len, 2u);
}

TEST(NameWire, RejectsForwardPointer) {
  // Pointer to offset 4 from offset 0 (forward) must be rejected.
  const util::Bytes wire = {0xC0, 0x04, 0x00, 0x00, 0x03, 'c', 'o', 'm', 0x00};
  WireReader r(wire);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, RejectsSelfPointerLoop) {
  const util::Bytes wire = {0xC0, 0x00};
  WireReader r(wire);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, RejectsTruncatedLabel) {
  const util::Bytes wire = {0x05, 'a', 'b'};
  WireReader r(wire);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, RejectsMissingTerminator) {
  const util::Bytes wire = {0x01, 'a'};
  WireReader r(wire);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, RejectsReservedLabelType) {
  const util::Bytes wire = {0x80, 'a', 0x00};
  WireReader r(wire);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(NameWire, PointerChainBacktracksCorrectly) {
  // Layout: "com" at 0, "example.com" at 5 (label + pointer to 0),
  // then a name at 15: "www" + pointer to 5.
  WireWriter w;
  NameCompressor comp;
  comp.write(w, Name::parse("com").value());
  comp.write(w, Name::parse("example.com").value());
  const std::size_t third_at = w.size();
  comp.write(w, Name::parse("www.example.com").value());

  WireReader r(w.data());
  ASSERT_TRUE(r.seek(third_at).has_value());
  auto n = read_name(r);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n.value().to_string(), "www.example.com");
  EXPECT_TRUE(r.at_end());  // cursor resumed after the pointer
}

// ---- wire primitives ---------------------------------------------------------

TEST(Wire, BigEndianRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  WireReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, TruncatedReadsFail) {
  const util::Bytes one = {0x01};
  WireReader r(one);
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_TRUE(r.u8().has_value());
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Wire, PatchU16) {
  WireWriter w;
  w.u16(0);
  w.u32(42);
  w.patch_u16(0, 0xBEEF);
  WireReader r(w.data());
  EXPECT_EQ(r.u16().value(), 0xBEEF);
}

TEST(Wire, SeekBounds) {
  const util::Bytes data = {1, 2, 3};
  WireReader r(data);
  EXPECT_TRUE(r.seek(3).has_value());  // end is valid
  EXPECT_FALSE(r.seek(4).has_value());
}

}  // namespace
}  // namespace ednsm::dns
