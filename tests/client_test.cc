#include <gtest/gtest.h>

#include <set>

#include "client/do53.h"
#include "client/doh.h"
#include "client/doq.h"
#include "client/dot.h"
#include "geo/geodb.h"
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

struct ClientWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(19)};
  IpAddr client_ip;
  std::unique_ptr<ResolverServer> server;
  std::unique_ptr<transport::ConnectionPool> pool;

  explicit ClientWorld(ServerBehavior behavior = {}) {
    behavior.warm_cache_probability = 1.0;  // deterministic fast answers
    client_ip = net.attach(geo::city::kColumbusOhio, AccessLinkModel::datacenter());
    server = std::make_unique<ResolverServer>(
        net, "dns.example", AnycastSite{"Chicago", geo::city::kChicago}, behavior);
    pool = std::make_unique<transport::ConnectionPool>(net, client_ip);
  }
};

TEST(ClientTypes, ProtocolAndErrorNames) {
  EXPECT_EQ(to_string(Protocol::Do53), "Do53");
  EXPECT_EQ(to_string(Protocol::DoT), "DoT");
  EXPECT_EQ(to_string(Protocol::DoH), "DoH");
  EXPECT_EQ(to_string(QueryErrorClass::ConnectRefused), "connect-refused");
  EXPECT_EQ(to_string(QueryErrorClass::Timeout), "timeout");
  EXPECT_EQ(to_string(QueryErrorClass::Malformed), "malformed");
}

TEST(ClientTypes, TransportErrorClassification) {
  EXPECT_EQ(classify_transport_error("tcp: connection refused (RST)"),
            QueryErrorClass::ConnectRefused);
  EXPECT_EQ(classify_transport_error("tcp: connection timed out (SYN retries exhausted)"),
            QueryErrorClass::ConnectTimeout);
  EXPECT_EQ(classify_transport_error("tls: certificate name mismatch"),
            QueryErrorClass::TlsFailure);
  EXPECT_EQ(classify_transport_error("???"), QueryErrorClass::Timeout);
}

TEST(SingleFire, FiresTimeoutExactlyOnce) {
  EventQueue queue;
  int fired = 0;
  SingleFire guard(queue, std::chrono::seconds(1), [&] { ++fired; });
  queue.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(guard.fired());
  EXPECT_FALSE(guard.fire());  // cannot fire again
}

TEST(SingleFire, ManualFireCancelsTimeout) {
  EventQueue queue;
  int timeouts = 0;
  SingleFire guard(queue, std::chrono::seconds(1), [&] { ++timeouts; });
  EXPECT_TRUE(guard.fire());
  EXPECT_FALSE(guard.fire());
  queue.run_until_idle();
  EXPECT_EQ(timeouts, 0);
}

TEST(SingleFire, DestructionCancelsTimer) {
  EventQueue queue;
  int timeouts = 0;
  {
    SingleFire guard(queue, std::chrono::seconds(1), [&] { ++timeouts; });
  }
  queue.run_until_idle();
  EXPECT_EQ(timeouts, 0);
}

// ---- timing semantics across the three protocols --------------------------------

TEST(Clients, ProtocolLadderColdLatency) {
  // Cold-start latency must order Do53 (1 RTT) < DoT (3 RTT) ~ DoH (3 RTT).
  ClientWorld w;
  double do53_ms = 0, dot_ms = 0, doh_ms = 0;

  Do53Client do53(w.net, w.client_ip, client::QueryOptions{});
  do53.query(w.server->address(), dns::Name::parse("a.com").value(), dns::RecordType::A,
             [&](QueryOutcome o) {
               ASSERT_TRUE(o.ok);
               do53_ms = netsim::to_ms(o.timing.total);
             });
  w.queue.run_until_idle();

  DotClient dot(w.net, *w.pool, client::QueryOptions{});
  dot.query(w.server->address(), "dns.example", dns::Name::parse("b.com").value(),
            dns::RecordType::A, [&](QueryOutcome o) {
              ASSERT_TRUE(o.ok);
              dot_ms = netsim::to_ms(o.timing.total);
            });
  w.queue.run_until_idle();

  DohClient doh(w.net, *w.pool, client::QueryOptions{});
  doh.query(w.server->address(), "dns.example", dns::Name::parse("c.com").value(),
            dns::RecordType::A, [&](QueryOutcome o) {
              ASSERT_TRUE(o.ok);
              doh_ms = netsim::to_ms(o.timing.total);
            });
  w.queue.run_until_idle();

  EXPECT_LT(do53_ms, dot_ms);
  EXPECT_LT(do53_ms, doh_ms);
  EXPECT_GT(dot_ms, 2.2 * do53_ms);
  EXPECT_GT(doh_ms, 2.2 * do53_ms);
}

TEST(Clients, ConnectShareReportedOnColdQuery) {
  ClientWorld w;
  DohClient doh(w.net, *w.pool, client::QueryOptions{});
  std::optional<QueryOutcome> out;
  doh.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
            dns::RecordType::A, [&](QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value() && out->ok);
  EXPECT_FALSE(out->timing.connection_reused);
  // Connect (TCP+TLS, 2 RTT) dominates: more than half of total.
  EXPECT_GT(netsim::to_ms(out->timing.connect), 0.5 * netsim::to_ms(out->timing.total));
  EXPECT_LT(out->timing.connect, out->timing.total);
}

TEST(Clients, ReusedQueryReportsZeroConnect) {
  ClientWorld w;
  QueryOptions options;
  options.reuse = transport::ReusePolicy::Keepalive;
  DohClient doh(w.net, *w.pool, options);
  std::vector<QueryOutcome> outs;
  for (int i = 0; i < 2; ++i) {
    doh.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
              dns::RecordType::A, [&](QueryOutcome o) { outs.push_back(std::move(o)); });
    w.queue.run_until_idle();
  }
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_TRUE(outs[1].timing.connection_reused);
  EXPECT_EQ(outs[1].timing.connect, netsim::kZeroDuration);
}

TEST(Clients, TicketResumptionReportedInTiming) {
  ClientWorld w;
  QueryOptions options;
  options.reuse = transport::ReusePolicy::TicketResumption;
  DohClient doh(w.net, *w.pool, options);
  std::vector<QueryOutcome> outs;
  auto ask = [&] {
    doh.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
              dns::RecordType::A, [&](QueryOutcome o) { outs.push_back(std::move(o)); });
    w.queue.run_until_idle();
  };
  ask();
  w.pool->invalidate({w.server->address(), netsim::kPortHttps}, "dns.example");
  ask();
  ASSERT_EQ(outs.size(), 2u);
  ASSERT_TRUE(outs[1].ok);
  EXPECT_EQ(outs[1].timing.tls_mode, transport::TlsMode::Resume);
}

TEST(Clients, ZeroRttQueryOverHttp1) {
  ClientWorld w;
  QueryOptions options;
  options.reuse = transport::ReusePolicy::TicketResumption;
  options.use_http2 = false;
  options.offer_early_data = true;
  DohClient doh(w.net, *w.pool, options);
  std::vector<QueryOutcome> outs;
  auto ask = [&] {
    doh.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
              dns::RecordType::A, [&](QueryOutcome o) { outs.push_back(std::move(o)); });
    w.queue.run_until_idle();
  };
  ask();  // full handshake, stores ticket
  w.pool->invalidate({w.server->address(), netsim::kPortHttps}, "dns.example");
  ask();  // 0-RTT
  ASSERT_EQ(outs.size(), 2u);
  ASSERT_TRUE(outs[0].ok);
  ASSERT_TRUE(outs[1].ok);
  EXPECT_EQ(outs[1].timing.tls_mode, transport::TlsMode::EarlyData);
  // 0-RTT saves one round trip vs the cold query.
  EXPECT_LT(netsim::to_ms(outs[1].timing.total), netsim::to_ms(outs[0].timing.total) - 3.0);
}

TEST(Clients, SequentialH2QueriesOnOneConnection) {
  ClientWorld w;
  QueryOptions options;
  options.reuse = transport::ReusePolicy::Keepalive;
  DohClient doh(w.net, *w.pool, options);
  int ok = 0;
  for (int i = 0; i < 5; ++i) {
    doh.query(w.server->address(), "dns.example",
              dns::Name::parse("q" + std::to_string(i) + ".com").value(),
              dns::RecordType::A, [&](QueryOutcome o) {
                if (o.ok) ++ok;
              });
    w.queue.run_until_idle();
  }
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(w.pool->live_sessions(), 1u);
  EXPECT_EQ(w.server->stats().doh_requests, 5u);
}

TEST(Clients, PaddingMakesQuerySizesUniform) {
  // With RFC 7830 padding, queries for different names occupy the same
  // number of bytes on the wire (same 128-byte block).
  const dns::Message q1 = dns::make_query(1, dns::Name::parse("a.com").value(),
                                          dns::RecordType::A);
  const dns::Message q2 = dns::make_query(2, dns::Name::parse("subdomain.example.org").value(),
                                          dns::RecordType::A);
  EXPECT_EQ(q1.encode(128).size(), q2.encode(128).size());
  EXPECT_NE(q1.encode(0).size(), q2.encode(0).size());
}

TEST(Clients, Do53StrayDatagramIgnored) {
  ClientWorld w;
  Do53Client do53(w.net, w.client_ip, client::QueryOptions{});
  std::optional<QueryOutcome> out;
  do53.query(w.server->address(), dns::Name::parse("a.com").value(), dns::RecordType::A,
             [&](QueryOutcome o) { out = std::move(o); });
  // No interference — just verify the normal path is clean and single-fire.
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok);
}

TEST(Clients, DohTimeoutInvalidatesPooledSession) {
  ServerBehavior stall;
  stall.warm_cache_probability = 0.0;
  stall.upstream.servfail_probability = 1.0;
  stall.upstream.servfail_stall_ms = 60000.0;
  ClientWorld w(stall);
  // ClientWorld forces warm_cache to 1.0; rebuild server with the stall.
  stall.warm_cache_probability = 0.0;
  w.server = std::make_unique<ResolverServer>(
      w.net, "dns.example", AnycastSite{"Chicago", geo::city::kChicago}, stall);

  QueryOptions options;
  options.reuse = transport::ReusePolicy::Keepalive;
  options.timeout = std::chrono::seconds(1);
  DohClient doh(w.net, *w.pool, options);
  std::optional<QueryOutcome> out;
  doh.query(w.server->address(), "dns.example", dns::Name::parse("a.com").value(),
            dns::RecordType::A, [&](QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->ok);
  EXPECT_EQ(out->error->error_class, QueryErrorClass::Timeout);
  EXPECT_EQ(w.pool->live_sessions(), 0u);  // poisoned session dropped
}


// Regression: multiple independent clients on one host must never collide on
// ephemeral ports (per-client counters once all started at 49152, so
// concurrent probes stole each other's bindings and accepted handshakes from
// the wrong server).
TEST(Clients, ConcurrentClientsOnOneHostDoNotCollide) {
  ClientWorld w;
  resolver::ServerBehavior behavior;
  behavior.warm_cache_probability = 1.0;
  auto server2 = std::make_unique<resolver::ResolverServer>(
      w.net, "dns2.example", resolver::AnycastSite{"Ashburn", geo::city::kAshburn},
      behavior);

  client::Do53Client do53_a(w.net, w.client_ip, client::QueryOptions{});
  client::Do53Client do53_b(w.net, w.client_ip, client::QueryOptions{});
  transport::ConnectionPool pool_b(w.net, w.client_ip);  // a second owner on the host
  client::DoqClient doq_a(w.net, *w.pool, client::QueryOptions{});
  client::DoqClient doq_b(w.net, pool_b, client::QueryOptions{});

  int ok = 0;
  auto count_ok = [&](client::QueryOutcome o) {
    if (o.ok) ++ok;
  };
  // Fire everything concurrently before running the event loop.
  do53_a.query(w.server->address(), dns::Name::parse("a.com").value(),
               dns::RecordType::A, count_ok);
  do53_b.query(server2->address(), dns::Name::parse("b.com").value(),
               dns::RecordType::A, count_ok);
  doq_a.query(w.server->address(), "dns.example", dns::Name::parse("c.com").value(),
              dns::RecordType::A, count_ok);
  doq_b.query(server2->address(), "dns2.example", dns::Name::parse("d.com").value(),
              dns::RecordType::A, count_ok);
  w.queue.run_until_idle();
  EXPECT_EQ(ok, 4);
}

TEST(Clients, NetworkHandsOutDistinctEphemeralPorts) {
  ClientWorld w;
  std::set<std::uint16_t> ports;
  for (int i = 0; i < 1000; ++i) ports.insert(w.net.ephemeral_port(w.client_ip));
  EXPECT_EQ(ports.size(), 1000u);
  for (std::uint16_t p : ports) EXPECT_GE(p, 49152);
}

}  // namespace
}  // namespace ednsm::client
