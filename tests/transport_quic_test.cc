#include <gtest/gtest.h>

#include "client/doh.h"
#include "client/doq.h"
#include "geo/geodb.h"
#include "resolver/server.h"
#include "transport/quic.h"

namespace ednsm::transport {
namespace {

using netsim::AccessLinkModel;
using netsim::Endpoint;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;
using netsim::to_ms;

struct QuicWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(41)};
  IpAddr client_ip, server_ip;
  Endpoint server_ep;
  std::unique_ptr<QuicListener> listener;

  explicit QuicWorld(geo::GeoPoint server_loc = geo::city::kAshburn) {
    client_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    server_ip = net.attach(server_loc, AccessLinkModel::datacenter());
    server_ep = Endpoint{server_ip, netsim::kPortDoq};
    ServerHandshakeConfig cfg;
    cfg.certificate_names = {"dns.example"};
    listener = std::make_unique<QuicListener>(net, server_ep, cfg);
    // Echo every stream back.
    listener->on_accept([](const std::shared_ptr<QuicServerConn>& conn) {
      std::weak_ptr<QuicServerConn> weak = conn;
      conn->on_stream([weak](std::uint64_t sid, util::Bytes data) {
        if (auto c = weak.lock()) c->send_stream(sid, std::move(data));
      });
    });
  }
};

TEST(QuicPacket, CodecRoundTrip) {
  QuicPacket p;
  p.type = QuicPacketType::Stream;
  p.conn_id = 0x0123456789abcdefULL;
  p.stream_id = 4;
  p.seq = 2;
  p.total = 7;
  p.data = util::to_bytes("chunk");
  auto decoded = QuicPacket::decode(p.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().conn_id, p.conn_id);
  EXPECT_EQ(decoded.value().stream_id, 4u);
  EXPECT_EQ(decoded.value().seq, 2);
  EXPECT_EQ(decoded.value().total, 7);
  EXPECT_EQ(decoded.value().data, p.data);
}

TEST(QuicPacket, DecodeRejectsGarbage) {
  EXPECT_FALSE(QuicPacket::decode(util::to_bytes("zz")).has_value());
  EXPECT_FALSE(QuicPacket::decode(util::Bytes{0}).has_value());
}

TEST(Quic, HandshakeCostsOneRtt) {
  QuicWorld w;
  QuicConnection conn(w.net, {w.client_ip, 53000}, w.server_ep, "dns.example", 1);
  bool connected = false;
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value()) << r.error();
    connected = true;
  });
  w.queue.run_until_idle();
  EXPECT_TRUE(connected);
  // Chicago-Ashburn RTT ~ 20-30 ms; QUIC handshake is ONE round trip
  // (TCP+TLS over the same path costs two — see Tls.HandshakeCostsOneExtraRtt).
  EXPECT_GT(to_ms(w.queue.now()), 15.0);
  EXPECT_LT(to_ms(w.queue.now()), 45.0);
}

TEST(Quic, StreamEchoRoundTrip) {
  QuicWorld w;
  QuicConnection conn(w.net, {w.client_ip, 53001}, w.server_ep, "dns.example", 2);
  util::Bytes echoed;
  std::uint64_t echoed_sid = 99;
  conn.on_stream([&](std::uint64_t sid, util::Bytes data) {
    echoed_sid = sid;
    echoed = std::move(data);
  });
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(conn.send_stream(util::to_bytes("hello-quic")), 0u);
  });
  w.queue.run_until_idle();
  EXPECT_EQ(echoed, util::to_bytes("hello-quic"));
  EXPECT_EQ(echoed_sid, 0u);
}

TEST(Quic, StreamIdsAdvanceByFour) {
  QuicWorld w;
  QuicConnection conn(w.net, {w.client_ip, 53002}, w.server_ep, "dns.example", 3);
  std::vector<std::uint64_t> sids;
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value());
    sids.push_back(conn.send_stream(util::to_bytes("a")));
    sids.push_back(conn.send_stream(util::to_bytes("b")));
    sids.push_back(conn.send_stream(util::to_bytes("c")));
  });
  w.queue.run_until_idle();
  EXPECT_EQ(sids, (std::vector<std::uint64_t>{0, 4, 8}));
}

TEST(Quic, LargeStreamChunksAndReassembles) {
  QuicWorld w;
  util::Bytes big(5 * kQuicMaxPayload + 17);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i % 253);
  QuicConnection conn(w.net, {w.client_ip, 53003}, w.server_ep, "dns.example", 4);
  util::Bytes echoed;
  conn.on_stream([&](std::uint64_t, util::Bytes data) { echoed = std::move(data); });
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value());
    (void)conn.send_stream(big);
  });
  w.queue.run_until_idle();
  EXPECT_EQ(echoed, big);
  EXPECT_GE(conn.stats().chunks_sent, 6u);
}

TEST(Quic, LossRecoveredByPto) {
  QuicWorld w;
  QuicConnection conn(w.net, {w.client_ip, 53004}, w.server_ep, "dns.example", 5);
  util::Bytes big(8 * kQuicMaxPayload);
  util::Bytes echoed;
  conn.on_stream([&](std::uint64_t, util::Bytes data) { echoed = std::move(data); });
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value());
    netsim::PathQuirk lossy;
    lossy.extra_loss = 0.3;
    w.net.set_quirk(w.client_ip, w.server_ip, lossy);
    (void)conn.send_stream(big);
  });
  w.queue.run_until_idle();
  EXPECT_EQ(echoed.size(), big.size());
  EXPECT_GT(conn.stats().retransmissions, 0u);
}

TEST(Quic, TicketEnablesResumption) {
  QuicWorld w;
  std::optional<SessionTicket> ticket;
  {
    QuicConnection conn(w.net, {w.client_ip, 53005}, w.server_ep, "dns.example", 6);
    conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
      ASSERT_TRUE(r.has_value());
      ticket = r.value().ticket;
    });
    w.queue.run_until_idle();
  }
  w.queue.run_until_idle();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->server_name, "dns.example");

  QuicConnection conn(w.net, {w.client_ip, 53006}, w.server_ep, "dns.example", 7);
  std::optional<TlsMode> mode;
  conn.connect(TlsMode::Resume, ticket, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value()) << r.error();
    mode = r.value().mode;
  });
  w.queue.run_until_idle();
  ASSERT_TRUE(mode.has_value());
  EXPECT_EQ(*mode, TlsMode::Resume);
}

TEST(Quic, ZeroRttDeliversQueryInFirstFlight) {
  QuicWorld w;
  std::optional<SessionTicket> ticket;
  {
    QuicConnection conn(w.net, {w.client_ip, 53007}, w.server_ep, "dns.example", 8);
    conn.connect(TlsMode::Full, std::nullopt, {},
                 [&](Result<QuicHandshakeInfo> r) { ticket = r.value().ticket; });
    w.queue.run_until_idle();
  }
  ASSERT_TRUE(ticket.has_value());

  QuicConnection conn(w.net, {w.client_ip, 53008}, w.server_ep, "dns.example", 9);
  util::Bytes echoed;
  bool accepted = false;
  double done_ms = 0;
  const double start_ms = to_ms(w.queue.now());
  conn.on_stream([&](std::uint64_t sid, util::Bytes data) {
    EXPECT_EQ(sid, 0u);
    echoed = std::move(data);
    done_ms = to_ms(w.queue.now());
  });
  conn.connect(TlsMode::EarlyData, ticket, util::to_bytes("0rtt-query"),
               [&](Result<QuicHandshakeInfo> r) {
                 ASSERT_TRUE(r.has_value());
                 accepted = r.value().early_data_accepted;
               });
  w.queue.run_until_idle();
  EXPECT_TRUE(accepted);
  EXPECT_EQ(echoed, util::to_bytes("0rtt-query"));
  // The whole exchange fits in ~2 RTT (early flight + echo), under 70 ms.
  EXPECT_LT(done_ms - start_ms, 70.0);
}

TEST(Quic, RejectedEarlyDataIsReplayed) {
  QuicWorld w;
  ServerHandshakeConfig cfg;
  cfg.certificate_names = {"dns.example"};
  cfg.accept_early_data = false;
  w.listener.reset();  // unbind the old listener before binding the new one
  w.listener = std::make_unique<QuicListener>(w.net, w.server_ep, cfg);
  w.listener->on_accept([](const std::shared_ptr<QuicServerConn>& conn) {
    std::weak_ptr<QuicServerConn> weak = conn;
    conn->on_stream([weak](std::uint64_t sid, util::Bytes data) {
      if (auto c = weak.lock()) c->send_stream(sid, std::move(data));
    });
  });

  std::optional<SessionTicket> ticket;
  {
    QuicConnection conn(w.net, {w.client_ip, 53009}, w.server_ep, "dns.example", 10);
    conn.connect(TlsMode::Full, std::nullopt, {},
                 [&](Result<QuicHandshakeInfo> r) { ticket = r.value().ticket; });
    w.queue.run_until_idle();
  }
  ASSERT_TRUE(ticket.has_value());

  QuicConnection conn(w.net, {w.client_ip, 53010}, w.server_ep, "dns.example", 11);
  util::Bytes echoed;
  bool accepted = true;
  conn.on_stream([&](std::uint64_t, util::Bytes data) { echoed = std::move(data); });
  conn.connect(TlsMode::EarlyData, ticket, util::to_bytes("replay-me"),
               [&](Result<QuicHandshakeInfo> r) {
                 ASSERT_TRUE(r.has_value());
                 accepted = r.value().early_data_accepted;
               });
  w.queue.run_until_idle();
  EXPECT_FALSE(accepted);
  EXPECT_EQ(echoed, util::to_bytes("replay-me"));  // replayed on stream 0
}

TEST(Quic, SniMismatchFailsConnect) {
  QuicWorld w;
  QuicConnection conn(w.net, {w.client_ip, 53011}, w.server_ep, "evil.example", 12);
  std::string error;
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_FALSE(r.has_value());
    error = r.error();
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("mismatch"), std::string::npos);
}

TEST(Quic, RefusalSurfacesAsRefused) {
  QuicWorld w;
  w.listener->set_refuse_probability(1.0);
  QuicConnection conn(w.net, {w.client_ip, 53012}, w.server_ep, "dns.example", 13);
  std::string error;
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_FALSE(r.has_value());
    error = r.error();
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("refused"), std::string::npos);
}

// Counterpart of Tcp.ProbabilisticRefusalIsPerAttempt. Refusal is drawn once
// per attempt (AttemptDraw), so on a lossy path, where Retries get lost and
// clients resend their Initial, every attempt refused on a clean path stays
// refused (or times out) and no accepted attempt is ever refused.
TEST(Quic, ProbabilisticRefusalIsPerAttempt) {
  constexpr int kAttempts = 200;
  struct Outcome {
    bool ok = false;
    bool refused = false;
    double at_ms = 0;
  };
  auto run = [](double extra_loss) {
    QuicWorld w;
    w.listener->set_refuse_probability(0.5);
    if (extra_loss > 0.0) {
      netsim::PathQuirk lossy;
      lossy.extra_loss = extra_loss;
      w.net.set_quirk(w.client_ip, w.server_ip, lossy);
    }
    std::vector<Outcome> out(kAttempts);
    std::vector<std::unique_ptr<QuicConnection>> conns;
    for (int i = 0; i < kAttempts; ++i) {
      conns.push_back(std::make_unique<QuicConnection>(
          w.net, Endpoint{w.client_ip, static_cast<std::uint16_t>(54000 + i)}, w.server_ep,
          "dns.example", static_cast<std::uint64_t>(2000 + i)));
      conns.back()->connect(TlsMode::Full, std::nullopt, {},
                            [&out, &w, i](Result<QuicHandshakeInfo> r) {
                              out[i].ok = r.has_value();
                              out[i].refused =
                                  !r && r.error().find("refused") != std::string::npos;
                              out[i].at_ms = to_ms(w.queue.now());
                            });
    }
    w.queue.run_until_idle();
    return out;
  };

  const std::vector<Outcome> clean = run(0.0);
  int refused = 0;
  for (const Outcome& o : clean) {
    EXPECT_TRUE(o.ok || o.refused);
    refused += o.refused ? 1 : 0;
  }
  EXPECT_GT(refused, 60);
  EXPECT_LT(refused, 140);

  const std::vector<Outcome> lossy = run(0.5);
  int refused_after_resend = 0;
  for (int i = 0; i < kAttempts; ++i) {
    if (clean[i].refused) {
      EXPECT_FALSE(lossy[i].ok) << "attempt " << i;
      if (lossy[i].refused && lossy[i].at_ms > 1000.0) ++refused_after_resend;
    } else {
      EXPECT_FALSE(lossy[i].refused) << "attempt " << i;
    }
  }
  EXPECT_GT(refused_after_resend, 0);  // retransmitted Initials were drawn again
}

TEST(Quic, SilentDropTimesOut) {
  QuicWorld w;
  w.listener->set_drop_probability(1.0);
  QuicConnection conn(w.net, {w.client_ip, 53013}, w.server_ep, "dns.example", 14);
  std::string error;
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_FALSE(r.has_value());
    error = r.error();
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("timed out"), std::string::npos);
}

TEST(Quic, CloseReleasesServerState) {
  QuicWorld w;
  int closed = 0;
  w.listener->on_close([&](const std::shared_ptr<QuicServerConn>&) { ++closed; });
  {
    QuicConnection conn(w.net, {w.client_ip, 53014}, w.server_ep, "dns.example", 15);
    conn.connect(TlsMode::Full, std::nullopt, {}, [](Result<QuicHandshakeInfo>) {});
    w.queue.run_until_idle();
    EXPECT_EQ(w.listener->connection_count(), 1u);
  }
  w.queue.run_until_idle();
  EXPECT_EQ(closed, 1);
  EXPECT_EQ(w.listener->connection_count(), 0u);
}

// Head-of-line independence: a loss on one stream must not delay another
// stream's delivery (contrast with TCP, where all messages share one pipe).
TEST(Quic, StreamsAreIndependentUnderLoss) {
  QuicWorld w;
  QuicConnection conn(w.net, {w.client_ip, 53015}, w.server_ep, "dns.example", 16);
  std::map<std::uint64_t, double> delivered_at;
  conn.on_stream([&](std::uint64_t sid, util::Bytes) {
    delivered_at[sid] = to_ms(w.queue.now());
  });
  conn.connect(TlsMode::Full, std::nullopt, {}, [&](Result<QuicHandshakeInfo> r) {
    ASSERT_TRUE(r.has_value());
    // Heavy loss: some streams will need PTO recovery, some won't.
    netsim::PathQuirk lossy;
    lossy.extra_loss = 0.35;
    w.net.set_quirk(w.client_ip, w.server_ip, lossy);
    for (int i = 0; i < 12; ++i) (void)conn.send_stream(util::to_bytes("q"));
  });
  w.queue.run_until_idle();
  ASSERT_EQ(delivered_at.size(), 12u);
  // At least one stream completed in ~1 RTT while another needed a PTO
  // (>250 ms): per-stream independence.
  double fastest = 1e9, slowest = 0;
  for (const auto& [sid, t] : delivered_at) {
    fastest = std::min(fastest, t);
    slowest = std::max(slowest, t);
  }
  EXPECT_LT(fastest, 100.0);
  EXPECT_GT(slowest, 250.0);
}

// ---- DoQ client against a full resolver server ------------------------------------

struct DoqWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(43)};
  IpAddr client_ip;
  std::unique_ptr<resolver::ResolverServer> server;
  std::unique_ptr<ConnectionPool> pool;

  explicit DoqWorld(resolver::ServerBehavior behavior = {}) {
    behavior.warm_cache_probability = 1.0;
    client_ip = net.attach(geo::city::kColumbusOhio, AccessLinkModel::datacenter());
    server = std::make_unique<resolver::ResolverServer>(
        net, "dns.example", resolver::AnycastSite{"Chicago", geo::city::kChicago},
        behavior);
    pool = std::make_unique<ConnectionPool>(net, client_ip);
  }
};

TEST(DoqClient, ResolvesOverQuic) {
  DoqWorld w;
  client::DoqClient doq(w.net, *w.pool, client::QueryOptions{});
  std::optional<client::QueryOutcome> out;
  doq.query(w.server->address(), "dns.example", dns::Name::parse("example.com").value(),
            dns::RecordType::A, [&](client::QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->ok) << (out->error ? out->error->detail : "");
  EXPECT_EQ(out->protocol, client::Protocol::DoQ);
  EXPECT_GT(out->answers.size(), 0u);
  EXPECT_EQ(w.server->stats().doq_requests, 1u);
}

TEST(DoqClient, ColdDoqBeatsColdDohByOneRtt) {
  DoqWorld w;
  client::DoqClient doq(w.net, *w.pool, client::QueryOptions{});
  double doq_ms = 0;
  doq.query(w.server->address(), "dns.example", dns::Name::parse("a.com").value(),
            dns::RecordType::A,
            [&](client::QueryOutcome o) { doq_ms = netsim::to_ms(o.timing.total); });
  w.queue.run_until_idle();

  client::DohClient doh(w.net, *w.pool, client::QueryOptions{});
  double doh_ms = 0;
  doh.query(w.server->address(), "dns.example", dns::Name::parse("b.com").value(),
            dns::RecordType::A,
            [&](client::QueryOutcome o) { doh_ms = netsim::to_ms(o.timing.total); });
  w.queue.run_until_idle();

  // DoQ cold = 2 RTT, DoH cold = 3 RTT over the same ~8 ms RTT path.
  EXPECT_LT(doq_ms, doh_ms - 4.0);
}

TEST(DoqClient, KeepaliveReusesConnection) {
  DoqWorld w;
  client::QueryOptions options;
  options.reuse = transport::ReusePolicy::Keepalive;
  client::DoqClient doq(w.net, *w.pool, options);
  std::vector<client::QueryOutcome> outs;
  for (int i = 0; i < 3; ++i) {
    doq.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
              dns::RecordType::A, [&](client::QueryOutcome o) { outs.push_back(o); });
    w.queue.run_until_idle();
  }
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_FALSE(outs[0].timing.connection_reused);
  EXPECT_TRUE(outs[1].timing.connection_reused);
  EXPECT_TRUE(outs[2].timing.connection_reused);
  EXPECT_EQ(w.pool->live_sessions(), 1u);
  EXPECT_LT(netsim::to_ms(outs[1].timing.total), netsim::to_ms(outs[0].timing.total));
}

TEST(DoqClient, ZeroRttQuery) {
  DoqWorld w;
  client::QueryOptions options;
  options.reuse = transport::ReusePolicy::TicketResumption;
  options.offer_early_data = true;
  client::DoqClient doq(w.net, *w.pool, options);
  std::vector<client::QueryOutcome> outs;
  auto ask = [&] {
    doq.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
              dns::RecordType::A, [&](client::QueryOutcome o) { outs.push_back(o); });
    w.queue.run_until_idle();
  };
  ask();
  w.pool->invalidate({w.server->address(), netsim::kPortDoq}, "dns.example");
  ask();
  ASSERT_EQ(outs.size(), 2u);
  ASSERT_TRUE(outs[1].ok) << (outs[1].error ? outs[1].error->detail : "");
  EXPECT_EQ(outs[1].timing.tls_mode, transport::TlsMode::EarlyData);
  // 0-RTT: query + answer in ~1 RTT, faster than the full-handshake query.
  EXPECT_LT(netsim::to_ms(outs[1].timing.total), netsim::to_ms(outs[0].timing.total) - 4.0);
}

TEST(DoqClient, ServerWithoutDoqTimesOut) {
  resolver::ServerBehavior b;
  b.supports_doq = false;
  DoqWorld w(b);
  client::QueryOptions options;
  options.timeout = std::chrono::seconds(2);
  client::DoqClient doq(w.net, *w.pool, options);
  std::optional<client::QueryOutcome> out;
  doq.query(w.server->address(), "dns.example", dns::Name::parse("x.com").value(),
            dns::RecordType::A, [&](client::QueryOutcome o) { out = std::move(o); });
  w.queue.run_until_idle();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->ok);
  EXPECT_EQ(out->error->error_class, client::QueryErrorClass::ConnectTimeout);
}

}  // namespace
}  // namespace ednsm::transport
