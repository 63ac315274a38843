#include <gtest/gtest.h>

#include "dns/edns.h"
#include "dns/message.h"

namespace ednsm::dns {
namespace {

Message sample_query() {
  return make_query(0x1234, Name::parse("google.com").value(), RecordType::A);
}

TEST(Message, QueryRoundTrip) {
  const Message q = sample_query();
  auto decoded = Message::decode(q.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value(), q);
}

TEST(Message, HeaderFlagsRoundTrip) {
  Message m = sample_query();
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = false;
  m.header.ra = true;
  m.header.ad = true;
  m.header.cd = true;
  m.header.rcode = Rcode::NxDomain;
  m.header.opcode = Opcode::Status;
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().header, m.header);
}

TEST(Message, ResponseEchoesQuestionAndId) {
  const Message q = sample_query();
  const Message r = make_response(q, Rcode::NoError, {});
  EXPECT_EQ(r.header.id, q.header.id);
  EXPECT_TRUE(r.header.qr);
  ASSERT_EQ(r.questions.size(), 1u);
  EXPECT_EQ(r.questions.front(), q.questions.front());
}

ResourceRecord a_record(const char* name, std::uint32_t ttl, std::uint8_t last_octet) {
  ResourceRecord rr;
  rr.name = Name::parse(name).value();
  rr.type = RecordType::A;
  rr.ttl = ttl;
  ARecord a;
  a.address = {192, 0, 2, last_octet};
  rr.rdata = a;
  return rr;
}

TEST(Message, ARecordRoundTrip) {
  Message m = make_response(sample_query(), Rcode::NoError, {a_record("google.com", 300, 1)});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  const auto& a = std::get<ARecord>(decoded.value().answers[0].rdata);
  EXPECT_EQ(a.address, (std::array<std::uint8_t, 4>{192, 0, 2, 1}));
  EXPECT_EQ(decoded.value().answers[0].ttl, 300u);
}

TEST(Message, MultipleAnswersCompressOwnerNames) {
  Message m = make_response(sample_query(), Rcode::NoError,
                            {a_record("google.com", 300, 1), a_record("google.com", 300, 2),
                             a_record("google.com", 300, 3)});
  const util::Bytes wire = m.encode();
  // Each repeated owner name should cost 2 bytes (pointer), not 12.
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().answers.size(), 3u);
  // Upper bound check: 12 (header) + question (16) + OPT (11) + 3 RRs.
  // Without compression an RR owner is 12 bytes; with pointers 2.
  EXPECT_LT(wire.size(), 100u);
}

TEST(Message, AaaaRoundTrip) {
  ResourceRecord rr;
  rr.name = Name::parse("v6.example").value();
  rr.type = RecordType::AAAA;
  rr.ttl = 60;
  AaaaRecord aaaa;
  aaaa.address = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  rr.rdata = aaaa;
  Message m = make_response(sample_query(), Rcode::NoError, {rr});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<AaaaRecord>(decoded.value().answers[0].rdata);
  EXPECT_EQ(got.address, aaaa.address);
}

TEST(Message, CnameChainRoundTrip) {
  ResourceRecord cname;
  cname.name = Name::parse("www.example.com").value();
  cname.type = RecordType::CNAME;
  cname.ttl = 120;
  cname.rdata = CnameRecord{Name::parse("example.com").value()};
  Message m = make_response(sample_query(), Rcode::NoError,
                            {cname, a_record("example.com", 120, 7)});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<CnameRecord>(decoded.value().answers[0].rdata).target.to_string(),
            "example.com");
}

TEST(Message, TxtRoundTrip) {
  ResourceRecord rr;
  rr.name = Name::parse("example.com").value();
  rr.type = RecordType::TXT;
  rr.ttl = 30;
  rr.rdata = TxtRecord{{"v=spf1 -all", "second string"}};
  Message m = make_response(sample_query(), Rcode::NoError, {rr});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto& txt = std::get<TxtRecord>(decoded.value().answers[0].rdata);
  ASSERT_EQ(txt.strings.size(), 2u);
  EXPECT_EQ(txt.strings[0], "v=spf1 -all");
}

TEST(Message, SoaRoundTrip) {
  ResourceRecord rr;
  rr.name = Name::parse("example.com").value();
  rr.type = RecordType::SOA;
  rr.ttl = 3600;
  SoaRecord soa;
  soa.mname = Name::parse("ns1.example.com").value();
  soa.rname = Name::parse("hostmaster.example.com").value();
  soa.serial = 2024050901;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 300;
  rr.rdata = soa;
  Message m = make_response(sample_query(), Rcode::NoError, {rr});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SoaRecord>(decoded.value().answers[0].rdata), soa);
}

TEST(Message, MxNsPtrSrvRoundTrip) {
  std::vector<ResourceRecord> answers;
  {
    ResourceRecord rr;
    rr.name = Name::parse("example.com").value();
    rr.type = RecordType::MX;
    rr.rdata = MxRecord{10, Name::parse("mail.example.com").value()};
    answers.push_back(rr);
  }
  {
    ResourceRecord rr;
    rr.name = Name::parse("example.com").value();
    rr.type = RecordType::NS;
    rr.rdata = NsRecord{Name::parse("ns1.example.com").value()};
    answers.push_back(rr);
  }
  {
    ResourceRecord rr;
    rr.name = Name::parse("1.2.0.192.in-addr.arpa").value();
    rr.type = RecordType::PTR;
    rr.rdata = PtrRecord{Name::parse("example.com").value()};
    answers.push_back(rr);
  }
  {
    ResourceRecord rr;
    rr.name = Name::parse("_dns._udp.example.com").value();
    rr.type = RecordType::SRV;
    rr.rdata = SrvRecord{1, 2, 853, Name::parse("dot.example.com").value()};
    answers.push_back(rr);
  }
  Message m = make_response(sample_query(), Rcode::NoError, answers);
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().answers, answers);
}

TEST(Message, OpaqueRdataForUnknownType) {
  ResourceRecord rr;
  rr.name = Name::parse("example.com").value();
  rr.type = RecordType::HTTPS;
  rr.rdata = OpaqueRdata{{1, 2, 3, 4, 5}};
  Message m = make_response(sample_query(), Rcode::NoError, {rr});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<OpaqueRdata>(decoded.value().answers[0].rdata).data,
            (util::Bytes{1, 2, 3, 4, 5}));
}

// ---- EDNS ---------------------------------------------------------------------

TEST(Edns, QueryCarriesOpt) {
  const Message q = sample_query();
  ASSERT_TRUE(q.edns.has_value());
  auto decoded = Message::decode(q.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded.value().edns.has_value());
  EXPECT_EQ(decoded.value().edns->udp_payload_size, 1232);
}

TEST(Edns, DnssecOkBitRoundTrips) {
  Message q = make_query(1, Name::parse("example.com").value(), RecordType::A, true);
  auto decoded = Message::decode(q.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded.value().edns->dnssec_ok);
}

TEST(Edns, PaddingRoundsMessageToBlock) {
  const Message q = sample_query();
  const util::Bytes padded = q.encode(128);
  EXPECT_EQ(padded.size() % 128, 0u);
  auto decoded = Message::decode(padded);
  ASSERT_TRUE(decoded.has_value());
  // Padding option present.
  bool has_padding = false;
  for (const EdnsOption& o : decoded.value().edns->options) {
    if (o.code == static_cast<std::uint16_t>(OptionCode::Padding)) has_padding = true;
  }
  EXPECT_TRUE(has_padding);
}

TEST(Edns, PaddingDifferentSizesSameBlock) {
  // Different qnames, same padded size class.
  const Message a = make_query(1, Name::parse("a.com").value(), RecordType::A);
  const Message b = make_query(2, Name::parse("muchlongername.example.com").value(),
                               RecordType::A);
  EXPECT_EQ(a.encode(128).size(), b.encode(128).size());
}

TEST(Edns, DuplicateOptRejected) {
  Message q = sample_query();
  util::Bytes wire = q.encode();
  // Append a second OPT RR and bump ARCOUNT.
  EdnsInfo extra;
  WireWriter w;
  write_opt_rr(w, extra);
  wire.insert(wire.end(), w.data().begin(), w.data().end());
  wire[11] = 2;  // ARCOUNT low byte (was 1)
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(Edns, UnsupportedVersionRejected) {
  auto r = parse_opt_rr(1232, /*ttl=*/static_cast<std::uint32_t>(1) << 16, {});
  EXPECT_FALSE(r.has_value());
}

// ---- malformed input ------------------------------------------------------------

TEST(MessageMalformed, TruncatedHeader) {
  const util::Bytes wire = {0x12, 0x34, 0x00};
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(MessageMalformed, TrailingGarbage) {
  util::Bytes wire = sample_query().encode();
  wire.push_back(0xFF);
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(MessageMalformed, CountsBeyondData) {
  util::Bytes wire = sample_query().encode();
  wire[5] = 9;  // QDCOUNT = 9, but only one question present
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(MessageMalformed, RdlengthMismatchRejected) {
  Message m = make_response(sample_query(), Rcode::NoError, {a_record("google.com", 60, 1)});
  util::Bytes wire = m.encode();
  // Find the A RDLENGTH (4) and corrupt it to 3. The RDATA of an A record is
  // the last 4 bytes before the OPT RR (11 bytes from the end).
  const std::size_t rdlen_offset = wire.size() - 11 - 4 - 2;
  ASSERT_EQ(wire[rdlen_offset + 1], 4);
  wire[rdlen_offset + 1] = 3;
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(MessageMalformed, EmptyInput) {
  EXPECT_FALSE(Message::decode({}).has_value());
}

// ---- types ----------------------------------------------------------------------

TEST(Types, RcodeStrings) {
  EXPECT_EQ(to_string(Rcode::NoError), "NOERROR");
  EXPECT_EQ(to_string(Rcode::ServFail), "SERVFAIL");
  EXPECT_EQ(to_string(Rcode::NxDomain), "NXDOMAIN");
}

}  // namespace
}  // namespace ednsm::dns
