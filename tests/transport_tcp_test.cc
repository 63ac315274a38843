#include <gtest/gtest.h>

#include "geo/geodb.h"
#include "transport/tcp.h"

namespace ednsm::transport {
namespace {

using netsim::AccessLinkModel;
using netsim::Endpoint;
using netsim::EventQueue;
using netsim::IpAddr;
using netsim::Rng;
using netsim::to_ms;

struct TcpWorld {
  EventQueue queue;
  netsim::Network net{queue, Rng(7)};
  IpAddr client_ip, server_ip;
  Endpoint server_ep;
  std::unique_ptr<TcpListener> listener;

  explicit TcpWorld(geo::GeoPoint server_loc = geo::city::kFrankfurt) {
    client_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    server_ip = net.attach(server_loc, AccessLinkModel::datacenter());
    server_ep = Endpoint{server_ip, 443};
    listener = std::make_unique<TcpListener>(net, server_ep);
  }
};

TEST(TcpSegment, CodecRoundTrip) {
  TcpSegment seg;
  seg.type = TcpSegmentType::Data;
  seg.conn_id = 0xDEADBEEF;
  seg.msg_id = 42;
  seg.seq = 3;
  seg.total = 9;
  seg.data = util::to_bytes("payload");
  auto decoded = TcpSegment::decode(seg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().type, TcpSegmentType::Data);
  EXPECT_EQ(decoded.value().conn_id, 0xDEADBEEFu);
  EXPECT_EQ(decoded.value().msg_id, 42u);
  EXPECT_EQ(decoded.value().seq, 3);
  EXPECT_EQ(decoded.value().total, 9);
  EXPECT_EQ(decoded.value().data, util::to_bytes("payload"));
}

TEST(TcpSegment, DecodeRejectsGarbage) {
  EXPECT_FALSE(TcpSegment::decode(util::to_bytes("xx")).has_value());
  EXPECT_FALSE(TcpSegment::decode(util::Bytes{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
                   .has_value());  // type 0 invalid
}

TEST(Tcp, HandshakeCostsOneRtt) {
  TcpWorld w;
  TcpConnection conn(w.net, {w.client_ip, 50000}, w.server_ep, 1);
  bool connected = false;
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    connected = true;
  });
  w.queue.run_until_idle();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(conn.established());
  // Chicago->Frankfurt RTT floor ~125 ms; handshake is exactly one RTT.
  EXPECT_GT(to_ms(w.queue.now()), 110.0);
  EXPECT_LT(to_ms(w.queue.now()), 200.0);
}

TEST(Tcp, RefusedConnectionReportsRst) {
  TcpWorld w;
  w.listener->set_refuse_probability(1.0);
  TcpConnection conn(w.net, {w.client_ip, 50001}, w.server_ep, 2);
  std::string error;
  conn.connect([&](Result<void> r) {
    ASSERT_FALSE(r.has_value());
    error = r.error();
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("refused"), std::string::npos);
}

TEST(Tcp, NoListenerMeansConnectTimeout) {
  TcpWorld w;
  w.listener.reset();  // nothing bound
  TcpConnection conn(w.net, {w.client_ip, 50002}, w.server_ep, 3);
  std::string error;
  conn.connect([&](Result<void> r) {
    ASSERT_FALSE(r.has_value());
    error = r.error();
  });
  w.queue.run_until_idle();
  EXPECT_NE(error.find("timed out"), std::string::npos);
  // 3 SYNs with 1s/2s/4s backoff -> fails at ~7s.
  EXPECT_GT(to_ms(w.queue.now()), 6500.0);
}

TEST(Tcp, SynDropStillConnectsViaRetransmit) {
  // Per-attempt failure hashing must NOT be confused by SYN loss on the
  // path: a lossy path drops individual SYNs, the retransmit gets through.
  EventQueue queue;
  netsim::Network net(queue, Rng(21));
  AccessLinkModel lossy = AccessLinkModel::datacenter();
  lossy.loss_probability = 0.9;  // drop most packets... client side only
  const IpAddr client_ip = net.attach(geo::city::kChicago, lossy);
  const IpAddr server_ip = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
  TcpListener listener(net, {server_ip, 443});
  // With 3 SYN transmissions at 90% loss, success is unlikely per-connection,
  // but over many attempts some must succeed and none may hang forever.
  int outcomes = 0;
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 30; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(
        net, Endpoint{client_ip, static_cast<std::uint16_t>(50100 + i)},
        Endpoint{server_ip, 443}, static_cast<std::uint32_t>(100 + i)));
    conns.back()->connect([&](Result<void>) { ++outcomes; });
  }
  queue.run_until_idle();
  EXPECT_EQ(outcomes, 30);  // every connect() resolves, success or failure
}

TEST(Tcp, MessageRoundTrip) {
  TcpWorld w;
  util::Bytes server_received;
  w.listener->on_accept([&](TcpServerConn& sc) {
    sc.on_message([&, &sc = sc](std::uint64_t, util::Bytes data) {
      server_received = data;
      sc.send_message(util::to_bytes("response"));
    });
  });

  TcpConnection conn(w.net, {w.client_ip, 50003}, w.server_ep, 4);
  util::Bytes client_received;
  conn.on_message([&](std::uint64_t, util::Bytes data) { client_received = data; });
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    conn.send_message(util::to_bytes("request"));
  });
  w.queue.run_until_idle();
  EXPECT_EQ(server_received, util::to_bytes("request"));
  EXPECT_EQ(client_received, util::to_bytes("response"));
}

TEST(Tcp, LargeMessageSegmentsAndReassembles) {
  TcpWorld w;
  util::Bytes big(10 * kTcpMss + 123);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i % 251);

  util::Bytes received;
  w.listener->on_accept([&](TcpServerConn& sc) {
    sc.on_message([&](std::uint64_t, util::Bytes data) { received = std::move(data); });
  });
  TcpConnection conn(w.net, {w.client_ip, 50004}, w.server_ep, 5);
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    conn.send_message(big);
  });
  w.queue.run_until_idle();
  EXPECT_EQ(received, big);
  EXPECT_GE(conn.stats().chunks_sent, 11u);
}

TEST(Tcp, EmptyMessageDelivered) {
  TcpWorld w;
  bool got = false;
  w.listener->on_accept([&](TcpServerConn& sc) {
    sc.on_message([&](std::uint64_t, util::Bytes data) {
      got = true;
      EXPECT_TRUE(data.empty());
    });
  });
  TcpConnection conn(w.net, {w.client_ip, 50005}, w.server_ep, 6);
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    conn.send_message({});
  });
  w.queue.run_until_idle();
  EXPECT_TRUE(got);
}

TEST(Tcp, LossRecoveredByRetransmission) {
  EventQueue queue;
  netsim::Network net(queue, Rng(33));
  const IpAddr c = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
  const IpAddr s = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
  TcpListener listener(net, {s, 443});
  util::Bytes big(20 * kTcpMss);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i & 0xff);

  util::Bytes received;
  listener.on_accept([&](TcpServerConn& sc) {
    sc.on_message([&](std::uint64_t, util::Bytes data) { received = std::move(data); });
  });
  TcpConnection conn(net, {c, 50006}, {s, 443}, 7);
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    // Make the established path lossy for the data phase only: the handshake
    // must not be flaky, or the test would measure connect retries instead.
    netsim::PathQuirk lossy;
    lossy.extra_loss = 0.25;
    net.set_quirk(c, s, lossy);
    conn.send_message(big);
  });
  queue.run_until_idle();
  EXPECT_EQ(received, big);
  EXPECT_GT(conn.stats().retransmissions, 0u);
}

TEST(Tcp, SequentialMessagesStayOrderedPerMessage) {
  TcpWorld w;
  std::vector<std::string> messages;
  w.listener->on_accept([&](TcpServerConn& sc) {
    sc.on_message(
        [&](std::uint64_t, util::Bytes data) { messages.push_back(util::as_string(data)); });
  });
  TcpConnection conn(w.net, {w.client_ip, 50007}, w.server_ep, 8);
  conn.connect([&](Result<void> r) {
    ASSERT_TRUE(r.has_value());
    conn.send_message(util::to_bytes("first"));
    conn.send_message(util::to_bytes("second"));
    conn.send_message(util::to_bytes("third"));
  });
  w.queue.run_until_idle();
  ASSERT_EQ(messages.size(), 3u);
  // Message *delivery* order can swap under jitter, but all must arrive.
  std::sort(messages.begin(), messages.end());
  EXPECT_EQ(messages, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Tcp, FinReleasesServerConnection) {
  TcpWorld w;
  int closed = 0;
  w.listener->on_accept([](TcpServerConn&) {});
  w.listener->on_close([&](TcpServerConn&) { ++closed; });
  {
    TcpConnection conn(w.net, {w.client_ip, 50008}, w.server_ep, 9);
    conn.connect([](Result<void>) {});
    w.queue.run_until_idle();
    EXPECT_EQ(w.listener->connection_count(), 1u);
  }  // destructor sends FIN
  w.queue.run_until_idle();
  EXPECT_EQ(closed, 1);
  EXPECT_EQ(w.listener->connection_count(), 0u);
}

TEST(Tcp, ProbabilisticRefusalIsPerAttempt) {
  TcpWorld w;
  w.listener->set_refuse_probability(0.5);
  int refused = 0, ok = 0;
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 200; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(
        w.net, Endpoint{w.client_ip, static_cast<std::uint16_t>(51000 + i)}, w.server_ep,
        static_cast<std::uint32_t>(1000 + i)));
    conns.back()->connect([&](Result<void> r) { (r.has_value() ? ok : refused)++; });
  }
  w.queue.run_until_idle();
  EXPECT_EQ(ok + refused, 200);
  EXPECT_GT(refused, 60);
  EXPECT_LT(refused, 140);
}

}  // namespace
}  // namespace ednsm::transport
