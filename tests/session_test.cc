// The unified resolver-session layer: SessionFactory dispatch, the per-phase
// timing invariants every protocol must satisfy, ODoH through the standard
// probe path, and the expanded ResultRecord JSON codec.
#include <gtest/gtest.h>

#include "client/session.h"
#include "core/probe.h"
#include "core/world.h"
#include "geo/geodb.h"
#include "resolver/odoh.h"
#include "resolver/server.h"

namespace ednsm::client {
namespace {

using netsim::AccessLinkModel;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;
using resolver::AnycastSite;
using resolver::ResolverServer;
using resolver::ServerBehavior;

struct SessionWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(23)};
  IpAddr client_ip;
  std::unique_ptr<ResolverServer> server;
  std::unique_ptr<transport::ConnectionPool> pool;

  SessionWorld() {
    ServerBehavior behavior;
    behavior.warm_cache_probability = 1.0;  // deterministic fast answers
    client_ip = net.attach(geo::city::kColumbusOhio, AccessLinkModel::datacenter());
    server = std::make_unique<ResolverServer>(
        net, "dns.example", AnycastSite{"Chicago", geo::city::kChicago}, behavior);
    pool = std::make_unique<transport::ConnectionPool>(net, client_ip);
  }

  [[nodiscard]] std::unique_ptr<ResolverSession> make(Protocol protocol,
                                                      QueryOptions options = {}) {
    const SessionFactory factory(net, *pool);
    SessionTarget target;
    target.server = server->address();
    target.hostname = "dns.example";
    return factory.create(protocol, std::move(target), options);
  }

  [[nodiscard]] QueryOutcome ask(ResolverSession& session, const std::string& domain) {
    std::optional<QueryOutcome> out;
    session.query(dns::Name::parse(domain).value(), dns::RecordType::A,
                  [&](QueryOutcome o) { out = std::move(o); });
    queue.run_until_idle();
    EXPECT_TRUE(out.has_value());
    return std::move(out).value();
  }
};

TEST(SessionFactory, CreatesEveryProtocol) {
  SessionWorld w;
  for (const Protocol p :
       {Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ, Protocol::ODoH}) {
    const auto session = w.make(p);
    ASSERT_NE(session, nullptr) << to_string(p);
    EXPECT_EQ(session->protocol(), p);
    EXPECT_EQ(session->target().hostname, "dns.example");
  }
}

// Every successful query must satisfy phase_sum() <= total: phases are
// disjoint slices of the same wall-clock interval, never overlapping ones.
TEST(SessionTiming, ColdPhasesDecomposeTotal) {
  for (const Protocol p : {Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ}) {
    SessionWorld w;
    const auto session = w.make(p);
    const QueryOutcome out = w.ask(*session, "example.com");
    ASSERT_TRUE(out.ok) << to_string(p);
    EXPECT_LE(out.timing.phase_sum(), out.timing.total) << to_string(p);
    EXPECT_GT(out.timing.exchange, netsim::kZeroDuration) << to_string(p);
    EXPECT_FALSE(out.timing.connection_reused) << to_string(p);
  }
}

TEST(SessionTiming, DotColdQueryStampsTcpAndTls) {
  SessionWorld w;
  const auto session = w.make(Protocol::DoT);
  const QueryOutcome out = w.ask(*session, "example.com");
  ASSERT_TRUE(out.ok);
  EXPECT_GT(out.timing.tcp_handshake, netsim::kZeroDuration);
  EXPECT_GT(out.timing.tls_handshake, netsim::kZeroDuration);
  EXPECT_EQ(out.timing.quic_handshake, netsim::kZeroDuration);
  // The lease phases partition connect: setup not spent in handshakes is
  // pool wait, so the three together never exceed the connect time.
  EXPECT_LE(out.timing.tcp_handshake + out.timing.tls_handshake + out.timing.wait_in_pool,
            out.timing.connect);
}

TEST(SessionTiming, WarmQueryHasNoHandshakePhases) {
  SessionWorld w;
  QueryOptions options;
  options.reuse = transport::ReusePolicy::Keepalive;
  const auto session = w.make(Protocol::DoH, options);
  ASSERT_TRUE(w.ask(*session, "a.com").ok);
  const QueryOutcome warm = w.ask(*session, "b.com");
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.timing.connection_reused);
  EXPECT_EQ(warm.timing.connect, netsim::kZeroDuration);
  EXPECT_EQ(warm.timing.tcp_handshake, netsim::kZeroDuration);
  EXPECT_EQ(warm.timing.tls_handshake, netsim::kZeroDuration);
  EXPECT_EQ(warm.timing.quic_handshake, netsim::kZeroDuration);
  EXPECT_EQ(warm.timing.wait_in_pool, netsim::kZeroDuration);
  EXPECT_GT(warm.timing.exchange, netsim::kZeroDuration);
  // Warm, the whole response IS the exchange.
  EXPECT_EQ(warm.timing.exchange, warm.timing.total);
}

TEST(SessionTiming, DoqReportsQuicHandshakeNotTcpTls) {
  SessionWorld w;
  const auto session = w.make(Protocol::DoQ);
  const QueryOutcome out = w.ask(*session, "example.com");
  ASSERT_TRUE(out.ok);
  EXPECT_GT(out.timing.quic_handshake, netsim::kZeroDuration);
  EXPECT_EQ(out.timing.tcp_handshake, netsim::kZeroDuration);
  EXPECT_EQ(out.timing.tls_handshake, netsim::kZeroDuration);
  EXPECT_LE(out.timing.quic_handshake, out.timing.total);
}

TEST(SessionTiming, Do53IsPureExchange) {
  SessionWorld w;
  const auto session = w.make(Protocol::Do53);
  const QueryOutcome out = w.ask(*session, "example.com");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.timing.tcp_handshake, netsim::kZeroDuration);
  EXPECT_EQ(out.timing.tls_handshake, netsim::kZeroDuration);
  EXPECT_EQ(out.timing.quic_handshake, netsim::kZeroDuration);
  EXPECT_EQ(out.timing.exchange, out.timing.total);
}

// A pooled TLS connection or a cached QUIC session keeps its data handler
// after the answer; that handler must not keep the answered query's
// callback. A callback that owns its session (a probe chain owns its client)
// would otherwise never be freed.
TEST(SessionLifecycle, AnsweredQueryReleasesItsCallback) {
  for (const Protocol p :
       {Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ, Protocol::ODoH}) {
    SessionWorld w;
    const resolver::OdohRelay relay(
        w.net, "relay.example", geo::city::kChicago,
        [&w](std::string_view host) -> std::optional<IpAddr> {
          if (host == "dns.example") return w.server->address();
          return std::nullopt;
        });
    QueryOptions options;
    options.reuse = transport::ReusePolicy::Keepalive;
    SessionTarget target;
    target.server = w.server->address();
    target.hostname = "dns.example";
    if (p == Protocol::ODoH) {
      target.relay = relay.address();
      target.relay_sni = relay.hostname();
    }
    const auto session = SessionFactory(w.net, *w.pool).create(p, target, options);

    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = token;
    bool answered = false;
    session->query(dns::Name::parse("x.com").value(), dns::RecordType::A,
                   [&answered, token](QueryOutcome o) { answered = o.ok; });
    token.reset();
    w.queue.run_until_idle();
    ASSERT_TRUE(answered) << to_string(p);
    EXPECT_TRUE(watch.expired()) << to_string(p);
  }
}

TEST(ProtocolNames, RoundTripAllFive) {
  for (const Protocol p :
       {Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ, Protocol::ODoH}) {
    const auto parsed = protocol_from_string(to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(to_string(Protocol::ODoH), "ODoH");
  EXPECT_FALSE(protocol_from_string("DoX").has_value());
}

}  // namespace
}  // namespace ednsm::client

namespace ednsm::core {
namespace {

// ODoH rides the standard probe path: the probe wires the world's shared
// relay into the session target and records come back tagged ODoH.
TEST(SessionProbe, OdohThroughStandardProbePath) {
  SimWorld world(7);
  std::vector<ResultRecord> records;
  client::QueryOptions options;
  DnsProbe::run(world, "ec2-ohio", "odoh-target.alekberg.net", {"example.com", "test.org"},
                client::Protocol::ODoH, options, 0,
                [&](std::vector<ResultRecord> r) { records = std::move(r); });
  world.run();
  ASSERT_EQ(records.size(), 2u);
  for (const ResultRecord& r : records) {
    EXPECT_TRUE(r.ok) << r.error_class << ": " << r.error_detail;
    EXPECT_EQ(r.protocol, client::Protocol::ODoH);
    EXPECT_GT(r.response_ms, 0.0);
    EXPECT_GT(r.exchange_ms, 0.0);
    EXPECT_LE(r.tcp_handshake_ms + r.tls_handshake_ms + r.quic_handshake_ms +
                  r.pool_wait_ms + r.exchange_ms,
              r.response_ms + 1e-9);
  }
}

TEST(ResultRecordJson, PhaseFieldsRoundTripLosslessly) {
  ResultRecord r;
  r.vantage = "ec2-ohio";
  r.resolver = "dns.example";
  r.domain = "example.com";
  r.protocol = client::Protocol::ODoH;
  r.round = 3;
  r.issued_at_ms = 1200.5;
  r.ok = true;
  r.response_ms = 84.25;
  r.connect_ms = 41.5;
  r.tcp_handshake_ms = 20.25;
  r.tls_handshake_ms = 19.75;
  r.quic_handshake_ms = 0.5;
  r.pool_wait_ms = 1.0;
  r.exchange_ms = 42.75;
  r.connection_reused = true;
  r.rcode = "NOERROR";
  r.http_status = 200;
  r.answer_count = 2;

  const auto parsed = ResultRecord::from_json(r.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  const ResultRecord& p = parsed.value();
  EXPECT_EQ(p.protocol, client::Protocol::ODoH);
  EXPECT_DOUBLE_EQ(p.response_ms, r.response_ms);
  EXPECT_DOUBLE_EQ(p.connect_ms, r.connect_ms);
  EXPECT_DOUBLE_EQ(p.tcp_handshake_ms, r.tcp_handshake_ms);
  EXPECT_DOUBLE_EQ(p.tls_handshake_ms, r.tls_handshake_ms);
  EXPECT_DOUBLE_EQ(p.quic_handshake_ms, r.quic_handshake_ms);
  EXPECT_DOUBLE_EQ(p.pool_wait_ms, r.pool_wait_ms);
  EXPECT_DOUBLE_EQ(p.exchange_ms, r.exchange_ms);
  EXPECT_TRUE(p.connection_reused);
  // A second round trip is byte-identical: the codec is a fixed point.
  EXPECT_EQ(p.to_json().dump(), r.to_json().dump());
  // The streamed writer emits the same bytes with every phase key present.
  for (const int indent : {0, 2}) {
    std::string streamed;
    util::JsonWriter w(streamed, indent);
    r.write_json(w);
    w.finish();
    EXPECT_EQ(streamed, r.to_json().dump(indent)) << "indent " << indent;
  }
}

TEST(ResultRecordJson, AbsentPhaseFieldsParseAsZero) {
  // Records written by earlier releases (or warm queries, which emit no
  // phase keys) must parse with every phase at zero.
  ResultRecord r;
  r.vantage = "v";
  r.resolver = "r";
  r.domain = "d";
  r.ok = true;
  r.rcode = "NOERROR";
  const auto parsed = ResultRecord::from_json(r.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_DOUBLE_EQ(parsed.value().tcp_handshake_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.value().tls_handshake_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.value().quic_handshake_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.value().pool_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.value().exchange_ms, 0.0);
}

}  // namespace
}  // namespace ednsm::core
