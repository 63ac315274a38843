#include <gtest/gtest.h>

#include "geo/geodb.h"
#include "transport/pool.h"

namespace ednsm::transport {
namespace {

using netsim::AccessLinkModel;
using netsim::Endpoint;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;

struct PoolWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(10)};
  IpAddr client_ip, server_ip;
  Endpoint server_ep;
  std::unique_ptr<TcpListener> listener;
  std::vector<std::unique_ptr<TlsServerSession>> sessions;
  std::unique_ptr<ConnectionPool> pool;

  PoolWorld() {
    client_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    server_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    server_ep = Endpoint{server_ip, 443};
    listener = std::make_unique<TcpListener>(net, server_ep);
    ServerHandshakeConfig cfg;
    cfg.certificate_names = {"dns.example"};
    listener->on_accept([this, cfg](TcpServerConn& conn) {
      sessions.push_back(std::make_unique<TlsServerSession>(queue, net.rng(), conn, cfg));
      auto& s = *sessions.back();
      s.on_data([&s](util::Bytes data) { s.send(data); });
    });
    pool = std::make_unique<ConnectionPool>(net, client_ip);
  }

  ConnectionPool::Lease acquire(ReusePolicy policy, util::Bytes early = {}) {
    std::optional<ConnectionPool::Lease> lease;
    pool->acquire(server_ep, "dns.example", policy, std::move(early),
                  [&](Result<ConnectionPool::Lease> r) {
                    ASSERT_TRUE(r.has_value()) << r.error();
                    lease = r.value();
                  });
    queue.run_until_idle();
    EXPECT_TRUE(lease.has_value());
    return *lease;
  }
};

TEST(Pool, FreshLeaseOnFirstAcquire) {
  PoolWorld w;
  const auto lease = w.acquire(ReusePolicy::Keepalive);
  EXPECT_TRUE(lease.fresh);
  EXPECT_EQ(lease.mode, TlsMode::Full);
  EXPECT_EQ(w.pool->live_sessions(), 1u);
}

TEST(Pool, KeepaliveReusesLiveSession) {
  PoolWorld w;
  const auto first = w.acquire(ReusePolicy::Keepalive);
  const auto second = w.acquire(ReusePolicy::Keepalive);
  EXPECT_TRUE(first.fresh);
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(first.tls, second.tls);
  EXPECT_EQ(w.pool->live_sessions(), 1u);
}

TEST(Pool, ProtocolStateLivesWithTheConnection) {
  PoolWorld w;
  const auto first = w.acquire(ReusePolicy::Keepalive);
  ASSERT_NE(first.protocol_state, nullptr);
  EXPECT_EQ(*first.protocol_state, nullptr);  // fresh connection: empty slot
  *first.protocol_state = std::make_shared<int>(7);

  // A re-used lease of the same connection finds what the first one stored.
  const auto second = w.acquire(ReusePolicy::Keepalive);
  ASSERT_FALSE(second.fresh);
  ASSERT_NE(*second.protocol_state, nullptr);
  EXPECT_EQ(*std::static_pointer_cast<int>(*second.protocol_state), 7);

  // A new connection starts empty again.
  w.pool->invalidate(w.server_ep, "dns.example");
  const auto third = w.acquire(ReusePolicy::Keepalive);
  ASSERT_TRUE(third.fresh);
  EXPECT_EQ(*third.protocol_state, nullptr);
}

TEST(Pool, PolicyNoneNeverReuses) {
  PoolWorld w;
  const auto first = w.acquire(ReusePolicy::None);
  EXPECT_TRUE(first.fresh);
  const auto second = w.acquire(ReusePolicy::None);
  EXPECT_TRUE(second.fresh);
}

TEST(Pool, TicketStoredAfterFullHandshake) {
  PoolWorld w;
  EXPECT_FALSE(w.pool->has_ticket(w.server_ep, "dns.example"));
  (void)w.acquire(ReusePolicy::TicketResumption);
  EXPECT_TRUE(w.pool->has_ticket(w.server_ep, "dns.example"));
}

TEST(Pool, ResumptionAfterInvalidate) {
  PoolWorld w;
  (void)w.acquire(ReusePolicy::TicketResumption);
  w.pool->invalidate(w.server_ep, "dns.example");
  EXPECT_EQ(w.pool->live_sessions(), 0u);
  EXPECT_TRUE(w.pool->has_ticket(w.server_ep, "dns.example"));  // ticket survives
  const auto lease = w.acquire(ReusePolicy::TicketResumption);
  EXPECT_TRUE(lease.fresh);
  EXPECT_EQ(lease.mode, TlsMode::Resume);
}

TEST(Pool, EarlyDataDeliveredWithResumption) {
  PoolWorld w;
  (void)w.acquire(ReusePolicy::TicketResumption);
  w.pool->invalidate(w.server_ep, "dns.example");
  const auto lease = w.acquire(ReusePolicy::TicketResumption, util::to_bytes("early"));
  EXPECT_EQ(lease.mode, TlsMode::EarlyData);
  EXPECT_TRUE(lease.early_data_accepted);
}

TEST(Pool, ConnectFailureSurfacesError) {
  PoolWorld w;
  w.listener->set_refuse_probability(1.0);
  w.pool->invalidate(w.server_ep, "dns.example");
  std::string error;
  w.pool->acquire(w.server_ep, "dns.example", ReusePolicy::None, {},
                  [&](Result<ConnectionPool::Lease> r) {
                    ASSERT_FALSE(r.has_value());
                    error = r.error();
                  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("refused"), std::string::npos);
  EXPECT_EQ(w.pool->live_sessions(), 0u);  // failed session not pooled
}

TEST(Pool, SniMismatchSurfacesTlsError) {
  PoolWorld w;
  std::string error;
  w.pool->acquire(w.server_ep, "other.example", ReusePolicy::None, {},
                  [&](Result<ConnectionPool::Lease> r) {
                    ASSERT_FALSE(r.has_value());
                    error = r.error();
                  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("mismatch"), std::string::npos);
}

TEST(Pool, DistinctSniDistinctSessions) {
  PoolWorld w;
  // Server only holds dns.example's cert, so use one name but check keying by
  // acquiring a second endpoint on the same server.
  (void)w.acquire(ReusePolicy::Keepalive);
  EXPECT_EQ(w.pool->live_sessions(), 1u);
  EXPECT_FALSE(w.pool->has_ticket({w.server_ip, 853}, "dns.example"));
}

TEST(Pool, ReusePolicyNames) {
  EXPECT_EQ(to_string(ReusePolicy::None), "none");
  EXPECT_EQ(to_string(ReusePolicy::Keepalive), "keepalive");
  EXPECT_EQ(to_string(ReusePolicy::TicketResumption), "ticket-resumption");
}

}  // namespace
}  // namespace ednsm::transport
