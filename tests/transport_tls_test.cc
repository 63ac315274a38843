#include <gtest/gtest.h>

#include "geo/geodb.h"
#include "transport/tls.h"

namespace ednsm::transport {
namespace {

using netsim::AccessLinkModel;
using netsim::Endpoint;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;
using netsim::to_ms;

struct TlsWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(9)};
  IpAddr client_ip, server_ip;
  Endpoint server_ep;
  std::unique_ptr<TcpListener> listener;
  std::vector<std::unique_ptr<TlsServerSession>> server_sessions;
  ServerHandshakeConfig server_config;

  TlsWorld() {
    client_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    server_ip = net.attach(geo::city::kAshburn, AccessLinkModel::datacenter());
    server_ep = Endpoint{server_ip, 443};
    listener = std::make_unique<TcpListener>(net, server_ep);
    server_config.certificate_names = {"dns.example"};
    listener->on_accept([this](TcpServerConn& conn) {
      server_sessions.push_back(
          std::make_unique<TlsServerSession>(queue, net.rng(), conn, server_config));
      auto& session = *server_sessions.back();
      session.on_data([&session](util::Bytes data) {
        session.send(data);  // echo server
      });
    });
  }
};

TEST(TlsRecord, CodecRoundTrip) {
  TlsRecord rec;
  rec.type = TlsContentType::ApplicationData;
  rec.payload = util::to_bytes("hello");
  const util::Bytes wire = rec.encode();
  EXPECT_EQ(wire.size(), 5u + 5u + 16u);  // header + payload + tag
  auto decoded = TlsRecord::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().payload, rec.payload);
  EXPECT_EQ(decoded.value().type, TlsContentType::ApplicationData);
}

TEST(TlsRecord, DecodeRejectsBadVersionAndType) {
  TlsRecord rec;
  rec.payload = util::to_bytes("x");
  util::Bytes wire = rec.encode();
  wire[1] = 0x02;  // version
  EXPECT_FALSE(TlsRecord::decode(wire).has_value());
  wire = rec.encode();
  wire[0] = 99;  // content type
  EXPECT_FALSE(TlsRecord::decode(wire).has_value());
  wire = rec.encode();
  wire.pop_back();  // truncate tag
  EXPECT_FALSE(TlsRecord::decode(wire).has_value());
}

TEST(Tls, FullHandshakeAndEcho) {
  TlsWorld w;
  TcpConnection conn(w.net, {w.client_ip, 52000}, w.server_ep, 1);
  TlsClient tls(conn, {"dns.example"});

  std::optional<TlsHandshakeInfo> info;
  util::Bytes echoed;
  tls.on_data([&](util::Bytes data) { echoed = std::move(data); });
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    tls.handshake(TlsMode::Full, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
      ASSERT_TRUE(hs.has_value()) << hs.error();
      info = hs.value();
      tls.send(util::to_bytes("app-data"));
    });
  });
  w.queue.run_until_idle();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->mode, TlsMode::Full);
  ASSERT_TRUE(info->ticket.has_value());
  EXPECT_EQ(info->ticket->server_name, "dns.example");
  EXPECT_EQ(echoed, util::to_bytes("app-data"));
  EXPECT_TRUE(tls.established());
}

TEST(Tls, CertificateMismatchFailsHandshake) {
  TlsWorld w;
  TcpConnection conn(w.net, {w.client_ip, 52001}, w.server_ep, 2);
  TlsClient tls(conn, {"wrong.example"});
  std::string error;
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    tls.handshake(TlsMode::Full, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
      ASSERT_FALSE(hs.has_value());
      error = hs.error();
    });
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("certificate name mismatch"), std::string::npos);
  EXPECT_FALSE(tls.established());
}

TEST(Tls, ResumptionRequiresTicket) {
  TlsWorld w;
  TcpConnection conn(w.net, {w.client_ip, 52002}, w.server_ep, 3);
  TlsClient tls(conn, {"dns.example"});
  std::string error;
  tls.handshake(TlsMode::Resume, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
    ASSERT_FALSE(hs.has_value());
    error = hs.error();
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("without a valid ticket"), std::string::npos);
}

TEST(Tls, ResumptionWithTicketCompletes) {
  TlsWorld w;
  // First connection: get a ticket.
  std::optional<SessionTicket> ticket;
  {
    TcpConnection conn(w.net, {w.client_ip, 52003}, w.server_ep, 4);
    TlsClient tls(conn, {"dns.example"});
    conn.connect([&](Result<void> r) {
      ASSERT_TRUE(r.has_value());
      tls.handshake(TlsMode::Full, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
        ASSERT_TRUE(hs.has_value());
        ticket = hs.value().ticket;
      });
    });
    w.queue.run_until_idle();
  }
  w.queue.run_until_idle();  // drain FIN
  ASSERT_TRUE(ticket.has_value());

  TcpConnection conn(w.net, {w.client_ip, 52004}, w.server_ep, 5);
  TlsClient tls(conn, {"dns.example"});
  std::optional<TlsMode> mode;
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    tls.handshake(TlsMode::Resume, ticket, {}, [&](Result<TlsHandshakeInfo> hs) {
      ASSERT_TRUE(hs.has_value()) << hs.error();
      mode = hs.value().mode;
    });
  });
  w.queue.run_until_idle();
  ASSERT_TRUE(mode.has_value());
  EXPECT_EQ(*mode, TlsMode::Resume);
}

TEST(Tls, EarlyDataReachesServerWithHandshake) {
  TlsWorld w;
  std::optional<SessionTicket> ticket;
  {
    TcpConnection conn(w.net, {w.client_ip, 52005}, w.server_ep, 6);
    TlsClient tls(conn, {"dns.example"});
    conn.connect([&](Result<void> r) {
      ASSERT_TRUE(r.has_value());
      tls.handshake(TlsMode::Full, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
        ASSERT_TRUE(hs.has_value());
        ticket = hs.value().ticket;
      });
    });
    w.queue.run_until_idle();
  }
  ASSERT_TRUE(ticket.has_value());

  TcpConnection conn(w.net, {w.client_ip, 52006}, w.server_ep, 7);
  TlsClient tls(conn, {"dns.example"});
  util::Bytes echoed;
  bool early_accepted = false;
  tls.on_data([&](util::Bytes data) { echoed = std::move(data); });
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    tls.handshake(TlsMode::EarlyData, ticket, util::to_bytes("0rtt-query"),
                  [&](Result<TlsHandshakeInfo> hs) {
                    ASSERT_TRUE(hs.has_value());
                    early_accepted = hs.value().early_data_accepted;
                  });
  });
  w.queue.run_until_idle();
  EXPECT_TRUE(early_accepted);
  EXPECT_EQ(echoed, util::to_bytes("0rtt-query"));  // echo server answered it
}

TEST(Tls, EarlyDataRejectedWhenServerDisablesIt) {
  TlsWorld w;
  w.server_config.accept_early_data = false;
  std::optional<SessionTicket> ticket;
  {
    TcpConnection conn(w.net, {w.client_ip, 52007}, w.server_ep, 8);
    TlsClient tls(conn, {"dns.example"});
    conn.connect([&](Result<void> r) {
      ASSERT_TRUE(r.has_value());
      tls.handshake(TlsMode::Full, std::nullopt, {},
                    [&](Result<TlsHandshakeInfo> hs) { ticket = hs.value().ticket; });
    });
    w.queue.run_until_idle();
  }
  ASSERT_TRUE(ticket.has_value());

  TcpConnection conn(w.net, {w.client_ip, 52008}, w.server_ep, 9);
  TlsClient tls(conn, {"dns.example"});
  bool early_accepted = true;
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    tls.handshake(TlsMode::EarlyData, ticket, util::to_bytes("0rtt"),
                  [&](Result<TlsHandshakeInfo> hs) {
                    ASSERT_TRUE(hs.has_value());
                    early_accepted = hs.value().early_data_accepted;
                  });
  });
  w.queue.run_until_idle();
  EXPECT_FALSE(early_accepted);
}

TEST(Tls, HandshakeFailureInjection) {
  TlsWorld w;
  w.server_config.handshake_failure_probability = 1.0;
  TcpConnection conn(w.net, {w.client_ip, 52009}, w.server_ep, 10);
  TlsClient tls(conn, {"dns.example"});
  std::string error;
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    tls.handshake(TlsMode::Full, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
      ASSERT_FALSE(hs.has_value());
      error = hs.error();
    });
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("alert"), std::string::npos);
}

TEST(Tls, HandshakeCostsOneExtraRtt) {
  TlsWorld w;
  TcpConnection conn(w.net, {w.client_ip, 52010}, w.server_ep, 11);
  TlsClient tls(conn, {"dns.example"});
  double connect_done_ms = 0, handshake_done_ms = 0;
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    connect_done_ms = to_ms(w.queue.now());
    tls.handshake(TlsMode::Full, std::nullopt, {}, [&](Result<TlsHandshakeInfo> hs) {
      ASSERT_TRUE(hs.has_value());
      handshake_done_ms = to_ms(w.queue.now());
    });
  });
  w.queue.run_until_idle();
  // TLS adds ~1 RTT (plus sub-ms crypto). Chicago-Ashburn RTT is ~20-30 ms.
  const double tls_cost = handshake_done_ms - connect_done_ms;
  EXPECT_GT(tls_cost, 0.6 * connect_done_ms);
  EXPECT_LT(tls_cost, 2.5 * connect_done_ms);
}

}  // namespace
}  // namespace ednsm::transport
