// Robustness sweeps: every wire decoder in the toolkit consumes untrusted
// bytes (the measurement tool talks to arbitrary public servers), so each
// must return a value or an error for ANY input — never crash, hang, or
// over-read. Two generators per decoder:
//   (1) uniformly random byte strings of assorted lengths, and
//   (2) valid messages with random single-byte mutations (the nastier case:
//       mostly-plausible input with corrupted length fields / pointers).
#include <gtest/gtest.h>

#include "client/doh.h"
#include "util/json.h"
#include "dns/base64url.h"
#include "geo/geodb.h"
#include "dns/message.h"
#include "http/h1.h"
#include "http/h2.h"
#include "http/hpack.h"
#include "netsim/rng.h"
#include "resolver/odoh.h"
#include "resolver/server.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "transport/tls.h"

namespace ednsm {
namespace {

util::Bytes random_bytes(netsim::Rng& rng, std::size_t max_len) {
  util::Bytes out(rng.uniform_u64(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  return out;
}

util::Bytes mutate(util::Bytes input, netsim::Rng& rng) {
  if (input.empty()) return input;
  const int mutations = 1 + static_cast<int>(rng.uniform_u64(4));
  for (int i = 0; i < mutations; ++i) {
    const std::size_t at = rng.uniform_u64(input.size());
    input[at] = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  }
  return input;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, DnsMessageDecodeNeverCrashes) {
  netsim::Rng rng(GetParam());
  const util::Bytes valid =
      dns::make_query(1, dns::Name::parse("www.example.com").value(), dns::RecordType::A)
          .encode();
  for (int i = 0; i < 500; ++i) {
    (void)dns::Message::decode(random_bytes(rng, 128));
    (void)dns::Message::decode(mutate(valid, rng));
  }
}

TEST_P(FuzzSeeds, DnsMessageDecodeEncodeDecodeStable) {
  // Anything that *does* decode must re-encode to something that decodes to
  // the same message (idempotence of the canonical form).
  netsim::Rng rng(GetParam() ^ 0xABCD);
  const util::Bytes valid =
      dns::make_query(7, dns::Name::parse("stable.example.org").value(),
                      dns::RecordType::AAAA)
          .encode();
  for (int i = 0; i < 300; ++i) {
    const util::Bytes candidate = mutate(valid, rng);
    auto first = dns::Message::decode(candidate);
    if (!first.has_value()) continue;
    auto second = dns::Message::decode(first.value().encode());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second.value(), first.value());
  }
}

TEST_P(FuzzSeeds, NameDecoderNeverCrashes) {
  netsim::Rng rng(GetParam() ^ 0x1111);
  for (int i = 0; i < 1000; ++i) {
    const util::Bytes data = random_bytes(rng, 300);
    dns::WireReader r(data);
    (void)dns::read_name(r);
  }
}

TEST_P(FuzzSeeds, Base64UrlDecodeNeverCrashes) {
  netsim::Rng rng(GetParam() ^ 0x2222);
  for (int i = 0; i < 1000; ++i) {
    const util::Bytes raw = random_bytes(rng, 64);
    (void)dns::base64url_decode(util::as_string(raw));
  }
}

TEST_P(FuzzSeeds, HttpCodecsNeverCrash) {
  netsim::Rng rng(GetParam() ^ 0x3333);
  const util::Bytes valid_req =
      http::Request{.method = "POST",
                    .path = "/dns-query",
                    .authority = "dns.example",
                    .headers = {{"content-type", "application/dns-message"}},
                    .body = util::to_bytes("payload")}
          .encode();
  for (int i = 0; i < 400; ++i) {
    (void)http::Request::decode(random_bytes(rng, 200));
    (void)http::Request::decode(mutate(valid_req, rng));
    (void)http::Response::decode(random_bytes(rng, 200));
    (void)http::decode_frames(random_bytes(rng, 200));
  }
}

TEST_P(FuzzSeeds, HpackDecoderNeverCrashes) {
  netsim::Rng rng(GetParam() ^ 0x4444);
  for (int i = 0; i < 500; ++i) {
    http::hpack::Decoder decoder;  // fresh table: mutations cannot poison later runs
    (void)decoder.decode(random_bytes(rng, 100));
  }
}

TEST_P(FuzzSeeds, TransportCodecsNeverCrash) {
  netsim::Rng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 500; ++i) {
    (void)transport::TcpSegment::decode(random_bytes(rng, 64));
    (void)transport::TlsRecord::decode(random_bytes(rng, 64));
    (void)transport::QuicPacket::decode(random_bytes(rng, 64));
    (void)resolver::ObliviousMessage::decode(random_bytes(rng, 64));
    (void)resolver::dot_unframe(random_bytes(rng, 64));
  }
}

TEST_P(FuzzSeeds, JsonParserNeverCrashes) {
  netsim::Rng rng(GetParam() ^ 0x6666);
  const std::string valid = R"({"a":[1,2,{"b":"c"}],"d":null,"e":true})";
  for (int i = 0; i < 400; ++i) {
    (void)util::Json::parse(util::as_string(random_bytes(rng, 120)));
    util::Bytes mutated = mutate(util::to_bytes(valid), rng);
    (void)util::Json::parse(util::as_string(mutated));
  }
}

TEST_P(FuzzSeeds, JsonRoundTripsWhenParseSucceeds) {
  netsim::Rng rng(GetParam() ^ 0x7777);
  const std::string valid = R"({"k":[1,2,3],"s":"text","n":-1.5e2})";
  for (int i = 0; i < 300; ++i) {
    util::Bytes mutated = mutate(util::to_bytes(valid), rng);
    auto parsed = util::Json::parse(util::as_string(mutated));
    if (!parsed.has_value()) continue;
    auto again = util::Json::parse(parsed.value().dump());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again.value(), parsed.value());
  }
}

// A malicious *server* must not be able to crash the measurement client:
// feed garbage into a live DoH exchange at the TLS layer.
TEST_P(FuzzSeeds, GarbageOverEstablishedTlsIsSurvivable) {
  netsim::Rng seed_rng(GetParam() ^ 0x8888);
  netsim::EventQueue queue;
  netsim::Network net(queue, netsim::Rng(GetParam()));
  const auto client_ip =
      net.attach(geo::city::kChicago, netsim::AccessLinkModel::datacenter());
  const auto server_ip =
      net.attach(geo::city::kChicago, netsim::AccessLinkModel::datacenter());
  transport::TcpListener listener(net, netsim::Endpoint{server_ip, 443});
  std::vector<std::unique_ptr<transport::TlsServerSession>> sessions;
  transport::ServerHandshakeConfig cfg;
  cfg.certificate_names = {"dns.example"};
  util::Bytes garbage = random_bytes(seed_rng, 80);
  listener.on_accept([&](transport::TcpServerConn& conn) {
    sessions.push_back(
        std::make_unique<transport::TlsServerSession>(queue, net.rng(), conn, cfg));
    auto& session = *sessions.back();
    session.on_data([&session, garbage](util::Bytes) {
      session.send(garbage);  // hostile response
    });
  });

  transport::ConnectionPool pool(net, client_ip);
  client::QueryOptions options;
  options.timeout = std::chrono::seconds(2);
  client::DohClient doh(net, pool, options);
  std::optional<client::QueryOutcome> out;
  doh.query(server_ip, "dns.example", dns::Name::parse("x.com").value(),
            dns::RecordType::A, [&](client::QueryOutcome o) { out = std::move(o); });
  queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->ok);  // classified as malformed or timeout — never a crash
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ednsm
