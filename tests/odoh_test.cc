#include <gtest/gtest.h>

#include "client/doh.h"
#include "client/odoh.h"
#include "geo/geodb.h"
#include "resolver/odoh.h"
#include "resolver/server.h"

namespace ednsm::resolver {
namespace {

using netsim::AccessLinkModel;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;

TEST(ObliviousMessage, CodecRoundTrip) {
  ObliviousMessage m;
  m.target_hostname = "odoh-target.alekberg.net";
  m.payload = util::to_bytes("sealed-dns-query");
  const util::Bytes wire = m.encode();
  EXPECT_EQ(wire.size(), 1 + m.target_hostname.size() + 2 + m.payload.size() + kHpkeOverhead);
  auto decoded = ObliviousMessage::decode(wire);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value().target_hostname, m.target_hostname);
  EXPECT_EQ(decoded.value().payload, m.payload);
}

TEST(ObliviousMessage, DecodeRejectsTruncation) {
  ObliviousMessage m;
  m.target_hostname = "t.example";
  m.payload = util::to_bytes("x");
  util::Bytes wire = m.encode();
  wire.pop_back();
  EXPECT_FALSE(ObliviousMessage::decode(wire).has_value());
  EXPECT_FALSE(ObliviousMessage::decode(util::Bytes{3, 'a'}).has_value());
}

struct OdohWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(51)};
  IpAddr client_ip;
  std::unique_ptr<ResolverServer> target;
  std::unique_ptr<OdohRelay> relay;
  std::unique_ptr<transport::ConnectionPool> pool;

  OdohWorld() {
    ServerBehavior behavior;
    behavior.warm_cache_probability = 1.0;
    client_ip = net.attach(geo::city::kColumbusOhio, AccessLinkModel::datacenter());
    // Target in New York, relay in Chicago: the relay detour is visible.
    target = std::make_unique<ResolverServer>(
        net, "odoh-target.example", AnycastSite{"New York", geo::city::kNewYork}, behavior);
    relay = std::make_unique<OdohRelay>(
        net, "relay.example", geo::city::kChicago,
        [this](std::string_view host) -> std::optional<IpAddr> {
          if (host == "odoh-target.example") return target->address();
          return std::nullopt;
        });
    pool = std::make_unique<transport::ConnectionPool>(net, client_ip);
  }

  client::QueryOutcome ask(const std::string& target_host,
                           client::QueryOptions options = {}) {
    client::OdohClient odoh(net, *pool, client::SessionTarget{}, options);
    std::optional<client::QueryOutcome> out;
    odoh.query(relay->address(), "relay.example", target_host,
               dns::Name::parse("example.com").value(), dns::RecordType::A,
               [&](client::QueryOutcome o) { out = std::move(o); });
    queue.run_until_idle();
    EXPECT_TRUE(out.has_value());
    return *out;
  }
};

TEST(Odoh, ResolvesThroughRelay) {
  OdohWorld w;
  const auto outcome = w.ask("odoh-target.example");
  ASSERT_TRUE(outcome.ok) << (outcome.error ? outcome.error->detail : "");
  EXPECT_GT(outcome.answers.size(), 0u);
  EXPECT_EQ(w.relay->stats().forwarded, 1u);
  EXPECT_EQ(w.target->stats().doh_requests, 1u);
}

TEST(Odoh, RelayPathCostsMoreThanDirect) {
  OdohWorld w;
  const auto via_relay = w.ask("odoh-target.example");
  ASSERT_TRUE(via_relay.ok);

  client::DohClient direct(w.net, *w.pool, client::QueryOptions{});
  std::optional<client::QueryOutcome> direct_out;
  direct.query(w.target->address(), "odoh-target.example",
               dns::Name::parse("example.com").value(), dns::RecordType::A,
               [&](client::QueryOutcome o) { direct_out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(direct_out.has_value() && direct_out->ok);

  // The relay adds its own connection setup plus the extra hop.
  EXPECT_GT(netsim::to_ms(via_relay.timing.total),
            netsim::to_ms(direct_out->timing.total) + 5.0);
}

TEST(Odoh, UnknownTargetYields502) {
  OdohWorld w;
  const auto outcome = w.ask("no-such-target.example");
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error->error_class, client::QueryErrorClass::HttpError);
  EXPECT_EQ(outcome.http_status, 502);
  EXPECT_EQ(w.relay->stats().target_failures, 1u);
}

TEST(Odoh, RelayReusesUpstreamSessions) {
  OdohWorld w;
  client::QueryOptions options;
  options.reuse = transport::ReusePolicy::Keepalive;
  const auto first = w.ask("odoh-target.example", options);
  const auto second = w.ask("odoh-target.example", options);
  ASSERT_TRUE(first.ok && second.ok);
  // Second query: client->relay session reused AND relay->target session
  // reused, so it saves two connection setups.
  EXPECT_TRUE(second.timing.connection_reused);
  EXPECT_LT(netsim::to_ms(second.timing.total), 0.6 * netsim::to_ms(first.timing.total));
}

TEST(Odoh, TargetSeesRelayNotClient) {
  // Privacy property, testable in the simulator: all datagrams arriving at
  // the target during an ODoH exchange originate from the relay's address.
  OdohWorld w;
  // Intercept: wrap the target's location lookup via network stats — instead,
  // simply verify the relay forwarded and the client never opened a direct
  // connection to the target (the client pool has no session to it).
  (void)w.ask("odoh-target.example");
  EXPECT_EQ(w.relay->stats().forwarded, 1u);
  EXPECT_FALSE(w.pool->has_ticket({w.target->address(), netsim::kPortHttps},
                                  "odoh-target.example"));
  EXPECT_EQ(w.pool->live_sessions(), 1u);  // only the relay session
}

TEST(Odoh, RejectsWrongMediaType) {
  OdohWorld w;
  // Speak raw HTTP to the relay with a plain DoH body.
  std::optional<int> status;
  w.pool->acquire({w.relay->address(), netsim::kPortHttps}, "relay.example",
                  transport::ReusePolicy::None, {},
                  [&](Result<transport::ConnectionPool::Lease> lease) {
                    ASSERT_TRUE(lease.has_value());
                    auto* tls = lease.value().tls;
                    tls->on_data([&](util::Bytes data) {
                      auto resp = http::Response::decode(data);
                      if (resp) status = resp.value().status;
                    });
                    const dns::Message q = dns::make_query(
                        1, dns::Name::parse("x.com").value(), dns::RecordType::A);
                    tls->send(http::make_doh_request("relay.example", "/dns-query",
                                                     q.encode(), true)
                                  .encode());
                  });
  w.queue.run_until_idle();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, 415);
  EXPECT_EQ(w.relay->stats().malformed, 1u);
}

}  // namespace
}  // namespace ednsm::resolver
