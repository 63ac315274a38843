#include <gtest/gtest.h>

#include "client/do53.h"
#include "client/doh.h"
#include "client/dot.h"
#include "geo/geodb.h"
#include "resolver/server.h"

namespace ednsm::resolver {
namespace {

using netsim::AccessLinkModel;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;

struct ServerWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(15)};
  IpAddr client_ip;
  std::unique_ptr<ResolverServer> server;
  std::unique_ptr<transport::ConnectionPool> pool;

  explicit ServerWorld(ServerBehavior behavior = {}) {
    client_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    server = std::make_unique<ResolverServer>(net, "dns.example",
                                              AnycastSite{"Chicago", geo::city::kChicago},
                                              behavior);
    pool = std::make_unique<transport::ConnectionPool>(net, client_ip);
  }

  client::QueryOutcome query_doh(const char* domain, client::QueryOptions options = {}) {
    client::DohClient doh(net, *pool, options);
    std::optional<client::QueryOutcome> out;
    doh.query(server->address(), "dns.example", dns::Name::parse(domain).value(),
              dns::RecordType::A, [&](client::QueryOutcome o) { out = std::move(o); });
    queue.run_until_idle();
    EXPECT_TRUE(out.has_value());
    return *out;
  }
};

TEST(DotFraming, RoundTrip) {
  const util::Bytes msg = util::to_bytes("abcdef");
  const util::Bytes framed = dot_frame(msg);
  EXPECT_EQ(framed.size(), msg.size() + 2);
  auto messages = dot_unframe(framed);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages.value().size(), 1u);
  EXPECT_EQ(messages.value()[0], msg);
}

TEST(DotFraming, MultipleMessages) {
  util::Bytes two = dot_frame(util::to_bytes("one"));
  const util::Bytes second = dot_frame(util::to_bytes("second"));
  two.insert(two.end(), second.begin(), second.end());
  auto messages = dot_unframe(two);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages.value().size(), 2u);
  EXPECT_EQ(util::as_string(messages.value()[1]), "second");
}

TEST(DotFraming, RejectsTruncation) {
  util::Bytes framed = dot_frame(util::to_bytes("abc"));
  framed.pop_back();
  EXPECT_FALSE(dot_unframe(framed).has_value());
  EXPECT_FALSE(dot_unframe(util::Bytes{0x00}).has_value());
}

TEST(Server, AnswersDohH2Query) {
  ServerWorld w;
  const auto outcome = w.query_doh("example.com");
  ASSERT_TRUE(outcome.ok) << (outcome.error ? outcome.error->detail : "");
  EXPECT_EQ(outcome.rcode, dns::Rcode::NoError);
  EXPECT_GT(outcome.answers.size(), 0u);
  EXPECT_EQ(outcome.http_status, 200);
  EXPECT_EQ(w.server->stats().doh_requests, 1u);
}

TEST(Server, AnswersDohH1GetAndPost) {
  for (const bool post : {false, true}) {
    ServerWorld w;
    client::QueryOptions options;
    options.use_http2 = false;
    options.use_post = post;
    const auto outcome = w.query_doh("example.com", options);
    ASSERT_TRUE(outcome.ok) << "post=" << post;
    EXPECT_EQ(outcome.http_status, 200);
  }
}

TEST(Server, AnswersDotQuery) {
  ServerWorld w;
  client::DotClient dot(w.net, *w.pool, client::QueryOptions{});
  std::optional<client::QueryOutcome> out;
  dot.query(w.server->address(), "dns.example", dns::Name::parse("example.com").value(),
            dns::RecordType::A, [&](client::QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->ok) << (out->error ? out->error->detail : "");
  EXPECT_EQ(out->protocol, client::Protocol::DoT);
  EXPECT_EQ(w.server->stats().dot_requests, 1u);
}

TEST(Server, AnswersDo53Query) {
  ServerWorld w;
  client::Do53Client do53(w.net, w.client_ip, client::QueryOptions{});
  std::optional<client::QueryOutcome> out;
  do53.query(w.server->address(), dns::Name::parse("example.com").value(),
             dns::RecordType::A, [&](client::QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->ok);
  EXPECT_EQ(out->protocol, client::Protocol::Do53);
  EXPECT_EQ(w.server->stats().do53_requests, 1u);
  EXPECT_EQ(do53.inflight(), 0u);
}

TEST(Server, Do53IsFasterThanDoHCold) {
  ServerBehavior warm;
  warm.warm_cache_probability = 1.0;  // keep recursion latency out of the comparison
  ServerWorld w(warm);
  client::Do53Client do53(w.net, w.client_ip, client::QueryOptions{});
  double do53_ms = 0, doh_ms = 0;
  do53.query(w.server->address(), dns::Name::parse("example.com").value(),
             dns::RecordType::A,
             [&](client::QueryOutcome o) { do53_ms = netsim::to_ms(o.timing.total); });
  w.queue.run_until_idle();
  doh_ms = netsim::to_ms(w.query_doh("example.com").timing.total);
  EXPECT_LT(do53_ms, doh_ms);   // 1 RTT vs 3+ RTT
  EXPECT_GT(doh_ms, 2.0 * do53_ms);
}

TEST(Server, CacheHitsOnRepeatedQueries) {
  ServerBehavior b;
  b.warm_cache_probability = 0.0;  // force a real first miss
  ServerWorld w(b);
  (void)w.query_doh("example.com");
  (void)w.query_doh("example.com");
  (void)w.query_doh("example.com");
  EXPECT_EQ(w.server->stats().cache_misses, 1u);
  EXPECT_EQ(w.server->stats().cache_hits, 2u);
}

TEST(Server, CacheMissIsSlower) {
  ServerBehavior b;
  b.warm_cache_probability = 0.0;
  b.upstream.servfail_probability = 0.0;
  ServerWorld w(b);
  const auto miss = w.query_doh("example.com");
  const auto hit = w.query_doh("example.com");
  ASSERT_TRUE(miss.ok && hit.ok);
  EXPECT_GT(netsim::to_ms(miss.timing.total), netsim::to_ms(hit.timing.total) + 5.0);
}

TEST(Server, ServfailPathStallsAndReturnsServfail) {
  ServerBehavior b;
  b.warm_cache_probability = 0.0;
  b.upstream.servfail_probability = 1.0;
  ServerWorld w(b);
  client::QueryOptions options;
  options.timeout = std::chrono::seconds(10);
  const auto outcome = w.query_doh("example.com", options);
  ASSERT_TRUE(outcome.ok);  // a SERVFAIL is still a response
  EXPECT_EQ(outcome.rcode, dns::Rcode::ServFail);
  EXPECT_GT(netsim::to_ms(outcome.timing.total), b.upstream.servfail_stall_ms);
  EXPECT_EQ(w.server->stats().servfails, 1u);
}

TEST(Server, HttpErrorInjection) {
  ServerBehavior b;
  b.http_error_probability = 1.0;
  ServerWorld w(b);
  const auto outcome = w.query_doh("example.com");
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error->error_class, client::QueryErrorClass::HttpError);
  EXPECT_EQ(outcome.http_status, 503);
  EXPECT_EQ(w.server->stats().http_errors, 1u);
}

TEST(Server, ConnectRefusalInjection) {
  ServerBehavior b;
  b.connect_refuse_probability = 1.0;
  ServerWorld w(b);
  const auto outcome = w.query_doh("example.com");
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error->error_class, client::QueryErrorClass::ConnectRefused);
}

TEST(Server, ConnectDropLeadsToConnectTimeout) {
  ServerBehavior b;
  b.connect_drop_probability = 1.0;
  ServerWorld w(b);
  client::QueryOptions options;
  options.timeout = std::chrono::seconds(30);  // let SYN retries exhaust
  const auto outcome = w.query_doh("example.com", options);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error->error_class, client::QueryErrorClass::ConnectTimeout);
}

TEST(Server, TlsFailureInjection) {
  ServerBehavior b;
  b.tls_failure_probability = 1.0;
  ServerWorld w(b);
  const auto outcome = w.query_doh("example.com");
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error->error_class, client::QueryErrorClass::TlsFailure);
}

TEST(Server, TimeoutWhenServerStalls) {
  ServerBehavior b;
  b.warm_cache_probability = 0.0;
  b.upstream.servfail_probability = 1.0;
  b.upstream.servfail_stall_ms = 60000.0;
  ServerWorld w(b);
  client::QueryOptions options;
  options.timeout = std::chrono::seconds(2);
  const auto outcome = w.query_doh("example.com", options);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error->error_class, client::QueryErrorClass::Timeout);
  EXPECT_NEAR(netsim::to_ms(outcome.timing.total), 2000.0, 1.0);
}

TEST(Server, MalformedQueryGetsFormerr) {
  ServerWorld w;
  // Speak raw DoH: send garbage bytes as the DNS message.
  transport::ConnectionPool pool(w.net, w.client_ip);
  std::optional<int> status;
  util::Bytes response_body;
  pool.acquire({w.server->address(), netsim::kPortHttps}, "dns.example",
               transport::ReusePolicy::None, {},
               [&](Result<transport::ConnectionPool::Lease> lease) {
                 ASSERT_TRUE(lease.has_value());
                 auto* tls = lease.value().tls;
                 tls->on_data([&](util::Bytes data) {
                   auto resp = http::Response::decode(data);
                   ASSERT_TRUE(resp.has_value());
                   status = resp.value().status;
                   response_body = resp.value().body;
                 });
                 const util::Bytes garbage = {0xde, 0xad};
                 tls->send(http::make_doh_request("dns.example", "/dns-query", garbage,
                                                  /*post=*/true)
                               .encode());
               });
  w.queue.run_until_idle();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, 200);  // FORMERR is a DNS-level error, HTTP is fine
  auto msg = dns::Message::decode(response_body);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg.value().header.rcode, dns::Rcode::FormErr);
  EXPECT_EQ(w.server->stats().formerrs, 1u);
}

TEST(Server, WrongPathGets404) {
  ServerBehavior b;
  b.doh_path = "/custom-path";
  ServerWorld w(b);
  const auto outcome = w.query_doh("example.com");  // client uses /dns-query
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.http_status, 404);
}

TEST(Server, DisabledProtocolsNotBound) {
  ServerBehavior b;
  b.supports_do53 = false;
  ServerWorld w(b);
  client::Do53Client do53(w.net, w.client_ip, client::QueryOptions{});
  std::optional<client::QueryOutcome> out;
  do53.query(w.server->address(), dns::Name::parse("x.com").value(), dns::RecordType::A,
             [&](client::QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->ok);
  EXPECT_EQ(out->error->error_class, client::QueryErrorClass::Timeout);
}

TEST(Server, ExtraResponseDelayShiftsDnsNotPing) {
  ServerBehavior slow;
  slow.extra_response_ms = 50.0;
  ServerWorld w(slow);
  const auto outcome = w.query_doh("example.com");
  ASSERT_TRUE(outcome.ok);

  std::optional<netsim::SimDuration> rtt;
  w.net.ping(w.client_ip, w.server->address(), std::chrono::seconds(3),
             [&](auto r) { rtt = r; });
  w.queue.run_until_idle();
  ASSERT_TRUE(rtt.has_value());
  // DNS response >> ping because the 50 ms rides only on the DNS path.
  EXPECT_GT(netsim::to_ms(outcome.timing.total), netsim::to_ms(*rtt) + 45.0);
}

TEST(Server, ConnectionReuseSkipsHandshakes) {
  ServerWorld w;
  client::QueryOptions reuse;
  reuse.reuse = transport::ReusePolicy::Keepalive;
  client::DohClient doh(w.net, *w.pool, reuse);

  std::vector<client::QueryOutcome> outcomes;
  auto run_one = [&](const char* domain) {
    doh.query(w.server->address(), "dns.example", dns::Name::parse(domain).value(),
              dns::RecordType::A, [&](client::QueryOutcome o) { outcomes.push_back(o); });
    w.queue.run_until_idle();
  };
  run_one("example.com");
  run_one("example.com");
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok && outcomes[1].ok);
  EXPECT_FALSE(outcomes[0].timing.connection_reused);
  EXPECT_TRUE(outcomes[1].timing.connection_reused);
  // Warm query saves the TCP+TLS round trips: ~1 RTT vs ~3 RTT.
  EXPECT_LT(netsim::to_ms(outcomes[1].timing.total),
            0.6 * netsim::to_ms(outcomes[0].timing.total));
}

}  // namespace
}  // namespace ednsm::resolver
