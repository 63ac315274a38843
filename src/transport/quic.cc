#include "transport/quic.h"

#include "dns/wire.h"
#include "netsim/rng.h"
#include "obs/trace.h"

namespace ednsm::transport {

using netsim::Datagram;
using netsim::Endpoint;

// ---- packet codec -------------------------------------------------------------

util::Bytes QuicPacket::encode() const {
  dns::WireWriter w;
  w.reserve(21 + data.size());  // fixed header + payload
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(conn_id >> 32));
  w.u32(static_cast<std::uint32_t>(conn_id & 0xffffffffULL));
  w.u32(static_cast<std::uint32_t>(stream_id >> 32));
  w.u32(static_cast<std::uint32_t>(stream_id & 0xffffffffULL));
  w.u16(seq);
  w.u16(total);
  w.bytes(data);
  return std::move(w).take();
}

Result<QuicPacket> QuicPacket::decode(std::span<const std::uint8_t> wire) {
  dns::WireReader r(wire);
  QuicPacket p;
  auto type = r.u8();
  if (!type || type.value() < 1 || type.value() > 6) {
    return Err{std::string("quic: bad packet type")};
  }
  p.type = static_cast<QuicPacketType>(type.value());
  auto chi = r.u32();
  auto clo = r.u32();
  if (!chi || !clo) return Err{std::string("quic: truncated conn id")};
  p.conn_id = (static_cast<std::uint64_t>(chi.value()) << 32) | clo.value();
  auto shi = r.u32();
  auto slo = r.u32();
  if (!shi || !slo) return Err{std::string("quic: truncated stream id")};
  p.stream_id = (static_cast<std::uint64_t>(shi.value()) << 32) | slo.value();
  auto seq = r.u16();
  auto total = r.u16();
  if (!seq || !total) return Err{std::string("quic: truncated header")};
  p.seq = seq.value();
  p.total = total.value();
  auto data = r.bytes(r.remaining());
  if (!data) return Err{std::string("quic: truncated data")};
  p.data = std::move(data).value();
  return p;
}

namespace {

// Initial payload: [mode][sni_len][sni][ticket u64][early bytes...]
struct InitialPayload {
  TlsMode mode = TlsMode::Full;
  std::string sni;
  std::uint64_t ticket_id = 0;
  util::Bytes early;

  [[nodiscard]] util::Bytes encode() const {
    dns::WireWriter w;
    w.u8(static_cast<std::uint8_t>(mode));
    w.u8(static_cast<std::uint8_t>(sni.size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(sni.data()), sni.size()));
    w.u32(static_cast<std::uint32_t>(ticket_id >> 32));
    w.u32(static_cast<std::uint32_t>(ticket_id & 0xffffffffULL));
    w.bytes(early);
    return std::move(w).take();
  }

  [[nodiscard]] static Result<InitialPayload> decode(std::span<const std::uint8_t> wire) {
    dns::WireReader r(wire);
    InitialPayload p;
    auto mode = r.u8();
    if (!mode || mode.value() > 2) return Err{std::string("quic: bad mode")};
    p.mode = static_cast<TlsMode>(mode.value());
    auto len = r.u8();
    if (!len) return Err{std::string("quic: truncated sni")};
    auto sni = r.view(len.value());
    if (!sni) return Err{std::string("quic: truncated sni")};
    p.sni.assign(reinterpret_cast<const char*>(sni.value().data()), sni.value().size());
    auto hi = r.u32();
    auto lo = r.u32();
    if (!hi || !lo) return Err{std::string("quic: truncated ticket")};
    p.ticket_id = (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
    auto early = r.bytes(r.remaining());
    if (!early) return Err{std::string("quic: truncated early data")};
    p.early = std::move(early).value();
    return p;
  }
};

// ServerInitial payload: [early_accepted][ticket u64][cert_len][cert]
struct ServerInitialPayload {
  bool early_accepted = false;
  std::uint64_t ticket_id = 0;
  std::string certificate_name;

  [[nodiscard]] util::Bytes encode() const {
    dns::WireWriter w;
    w.u8(early_accepted ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(ticket_id >> 32));
    w.u32(static_cast<std::uint32_t>(ticket_id & 0xffffffffULL));
    w.u8(static_cast<std::uint8_t>(certificate_name.size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(certificate_name.data()),
                      certificate_name.size()));
    return std::move(w).take();
  }

  [[nodiscard]] static Result<ServerInitialPayload> decode(
      std::span<const std::uint8_t> wire) {
    dns::WireReader r(wire);
    ServerInitialPayload p;
    auto early = r.u8();
    if (!early) return Err{std::string("quic: truncated server initial")};
    p.early_accepted = early.value() != 0;
    auto hi = r.u32();
    auto lo = r.u32();
    if (!hi || !lo) return Err{std::string("quic: truncated ticket")};
    p.ticket_id = (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
    auto len = r.u8();
    if (!len) return Err{std::string("quic: truncated cert")};
    auto cert = r.bytes(len.value());
    if (!cert) return Err{std::string("quic: truncated cert")};
    p.certificate_name.assign(reinterpret_cast<const char*>(cert.value().data()),
                              cert.value().size());
    return p;
  }
};

// ---- stream messages ------------------------------------------------------------

// Wraps one of MessageCore's chunks or acks in a Stream or StreamAck packet.
QuicPacket stream_packet(const Chunk& chunk, bool ack, std::uint64_t conn_id) {
  QuicPacket p;
  p.type = ack ? QuicPacketType::StreamAck : QuicPacketType::Stream;
  p.conn_id = conn_id;
  p.stream_id = chunk.id;
  p.seq = chunk.seq;
  p.total = chunk.total;
  p.data = chunk.data;
  return p;
}

// Hands a Stream or StreamAck packet to the message engine; other types are
// the connection's business.
void feed(MessageCore& core, QuicPacket& p) {
  if (p.type == QuicPacketType::Stream) {
    core.handle_chunk(p.stream_id, p.seq, p.total, std::move(p.data));
  } else if (p.type == QuicPacketType::StreamAck) {
    core.handle_ack(p.stream_id, p.seq);
  }
}

// Server handshake CPU cost (exponential mean, ms): one combined flight,
// cheaper than TCP+TLS's full handshake; the PSK path costs the same as TLS's.
constexpr double kQuicHandshakeCpuMs = 0.5;
constexpr double kQuicResumeCpuMs = 0.08;

}  // namespace

// ---- client ----------------------------------------------------------------------

QuicConnection::QuicConnection(netsim::Network& net, Endpoint local, Endpoint remote,
                               std::string sni, std::uint64_t conn_id)
    : net_(net),
      local_(local),
      remote_(remote),
      sni_(std::move(sni)),
      conn_id_(conn_id),
      core_(net.queue(), kQuicMaxPayload, kQuicPto, [this](const Chunk& chunk, bool ack) {
        send_packet(stream_packet(chunk, ack, conn_id_));
      }) {
  net_.bind(local_, [this](const Datagram& d) { handle_datagram(d); });
}

QuicConnection::~QuicConnection() {
  if (destroyed_during_replay_ != nullptr) *destroyed_during_replay_ = true;
  close();
  net_.unbind(local_);
}

void QuicConnection::close() {
  if (established_) {
    QuicPacket p;
    p.type = QuicPacketType::Close;
    send_packet(p);
    established_ = false;
  }
  core_.shutdown();
  if (initial_timer_.has_value()) {
    net_.queue().cancel(*initial_timer_);
    initial_timer_.reset();
  }
}

void QuicConnection::send_packet(QuicPacket p) {
  p.conn_id = conn_id_;
  net_.send(Datagram{local_, remote_, p.encode()});
}

void QuicConnection::connect(TlsMode mode, std::optional<SessionTicket> ticket,
                             util::Bytes early_stream, ConnectCallback cb) {
  connect_cb_ = std::move(cb);
  mode_ = mode;
  connect_started_ = net_.queue().now();
  if (mode != TlsMode::Full) {
    if (!ticket.has_value() || ticket->server_name != sni_) {
      auto hcb = std::move(connect_cb_);
      connect_cb_ = nullptr;
      hcb(Err{std::string("quic: resumption requested without a valid ticket")});
      return;
    }
  }

  InitialPayload payload;
  payload.mode = mode;
  payload.sni = sni_;
  payload.ticket_id = ticket.has_value() ? ticket->id : 0;
  if (mode == TlsMode::EarlyData) {
    payload.early = early_stream;
    pending_early_ = std::move(early_stream);
    next_stream_id_ = 4;  // stream 0 is the early stream
  }

  QuicPacket initial;
  initial.type = QuicPacketType::Initial;
  initial.data = payload.encode();

  // Keep the encoded Initial for retransmission.
  pending_initial_ = std::move(initial);
  retransmit_initial();
}

void QuicConnection::retransmit_initial() {
  if (established_ || connect_cb_ == nullptr) return;
  if (initial_transmissions_ >= kMaxInitialTransmissions) {
    fail_connect("quic: connection timed out (Initial retries exhausted)");
    return;
  }
  ++initial_transmissions_;
  send_packet(pending_initial_);
  const auto backoff = kInitialPto * (1 << (initial_transmissions_ - 1));
  initial_timer_ = net_.queue().schedule(backoff, [this] { retransmit_initial(); });
}

void QuicConnection::fail_connect(const std::string& why) {
  if (initial_timer_.has_value()) {
    net_.queue().cancel(*initial_timer_);
    initial_timer_.reset();
  }
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(Err{why});
  }
}

std::uint64_t QuicConnection::send_stream(util::Bytes data) {
  const std::uint64_t sid = next_stream_id_;
  next_stream_id_ += 4;
  core_.send(sid, std::move(data));
  return sid;
}

void QuicConnection::handle_datagram(const Datagram& d) {
  auto packet_r = QuicPacket::decode(d.payload);
  if (!packet_r) return;
  QuicPacket& p = packet_r.value();
  if (p.conn_id != conn_id_) return;

  switch (p.type) {
    case QuicPacketType::ServerInitial: {
      if (established_) return;  // duplicate
      auto payload = ServerInitialPayload::decode(p.data);
      if (!payload) return;
      if (initial_timer_.has_value()) {
        net_.queue().cancel(*initial_timer_);
        initial_timer_.reset();
      }
      if (payload.value().certificate_name != sni_) {
        fail_connect("quic: tls certificate name mismatch (got '" +
                     payload.value().certificate_name + "')");
        return;
      }
      established_ = true;
      handshake_duration_ = net_.queue().now() - connect_started_;
      OBS_COMPLETE(net_.queue(), "transport", "quic-handshake", connect_started_,
                   handshake_duration_);
      QuicHandshakeInfo info;
      info.mode = mode_;
      info.early_data_accepted = payload.value().early_accepted;
      info.ticket = SessionTicket{payload.value().ticket_id, sni_};
      // Early data rejected? Replay it as a regular stream 0 message.
      if (mode_ == TlsMode::EarlyData && !info.early_data_accepted &&
          !pending_early_.empty()) {
        core_.send(0, std::move(pending_early_));
      }
      pending_early_.clear();
      if (connect_cb_) {
        auto cb = std::move(connect_cb_);
        connect_cb_ = nullptr;
        cb(info);
      }
      // Replay stream packets that arrived ahead of the handshake, stopping
      // if a stream handler destroys this connection.
      std::vector<QuicPacket> reordered;
      reordered.swap(reordered_);
      bool destroyed = false;
      destroyed_during_replay_ = &destroyed;
      for (QuicPacket& early_pkt : reordered) {
        feed(core_, early_pkt);
        if (destroyed) return;
      }
      destroyed_during_replay_ = nullptr;
      return;
    }
    case QuicPacketType::Retry:
      fail_connect("quic: connection refused (Retry/close from server)");
      return;
    case QuicPacketType::Stream:
    case QuicPacketType::StreamAck:
      if (established_) {
        feed(core_, p);
      } else if (connect_cb_ != nullptr) {
        reordered_.push_back(std::move(p));  // outran the ServerInitial
      }
      return;
    case QuicPacketType::Close:
      established_ = false;
      return;
    default:
      return;
  }
}

// ---- server ----------------------------------------------------------------------

QuicServerConn::QuicServerConn(netsim::EventQueue& queue, MessageCore::SendFn send)
    : core_(queue, kQuicMaxPayload, kQuicPto, std::move(send)) {}

void QuicServerConn::handle(QuicPacket& p) { feed(core_, p); }

QuicListener::QuicListener(netsim::Network& net, Endpoint local, ServerHandshakeConfig config)
    : net_(net),
      local_(local),
      config_(std::move(config)),
      salt_(net.rng().next_u64()),
      next_ticket_id_(net.rng().next_u64() | 1) {
  net_.bind(local_, [this](const Datagram& d) { handle_datagram(d); });
}

QuicListener::~QuicListener() { net_.unbind(local_); }

void QuicListener::handle_datagram(const Datagram& d) {
  auto packet_r = QuicPacket::decode(d.payload);
  if (!packet_r) return;
  QuicPacket& p = packet_r.value();
  const ConnKey key{d.src, p.conn_id};

  if (p.type == QuicPacketType::Initial) {
    const auto existing = conns_.find(key);
    if (existing == conns_.end()) {
      AttemptDraw draw(salt_, d.src, p.conn_id);
      const double u_refuse = draw.next();
      const double u_drop = draw.next();
      const double u_hs = draw.next();
      if (u_refuse < refuse_probability_ ||
          u_hs < config_.handshake_failure_probability) {
        QuicPacket retry;
        retry.type = QuicPacketType::Retry;
        retry.conn_id = p.conn_id;
        net_.send(Datagram{local_, d.src, retry.encode()});
        return;
      }
      if (u_drop < drop_probability_) return;
    }

    auto payload_r = InitialPayload::decode(p.data);
    if (!payload_r) return;
    InitialPayload& payload = payload_r.value();

    bool sni_ok = false;
    for (const std::string& name : config_.certificate_names) {
      if (name == payload.sni) sni_ok = true;
    }

    std::shared_ptr<QuicServerConn> conn;
    const bool fresh = existing == conns_.end();
    if (fresh) {
      const Endpoint peer = d.src;
      const std::uint64_t conn_id = p.conn_id;
      conn = std::make_shared<QuicServerConn>(
          net_.queue(), [this, peer, conn_id](const Chunk& chunk, bool ack) {
            net_.send(Datagram{local_, peer, stream_packet(chunk, ack, conn_id).encode()});
          });
      conns_[key] = conn;
      if (on_accept_) on_accept_(conn);
    } else {
      conn = existing->second;
    }

    // Effective mode: a PSK needs a ticket.
    TlsMode mode = payload.mode;
    if (mode != TlsMode::Full && payload.ticket_id == 0) mode = TlsMode::Full;
    const double cpu_ms = mode == TlsMode::Full ? net_.rng().exponential(kQuicHandshakeCpuMs)
                                                : net_.rng().exponential(kQuicResumeCpuMs);

    ServerInitialPayload reply;
    reply.early_accepted = mode == TlsMode::EarlyData && config_.accept_early_data &&
                           !payload.early.empty() && sni_ok;
    reply.ticket_id = next_ticket_id_++;
    reply.certificate_name = sni_ok ? payload.sni
                             : config_.certificate_names.empty()
                                 ? std::string("invalid.example")
                                 : config_.certificate_names.front();

    QuicPacket out;
    out.type = QuicPacketType::ServerInitial;
    out.conn_id = p.conn_id;
    out.data = reply.encode();

    std::weak_ptr<QuicServerConn> weak = conn;
    const Endpoint peer = d.src;
    util::Bytes early = reply.early_accepted ? std::move(payload.early) : util::Bytes{};
    net_.queue().schedule(
        netsim::from_ms(cpu_ms),
        [this, weak, peer, out = std::move(out), early = std::move(early)]() mutable {
          auto live = weak.lock();
          if (!live) return;  // torn down during the handshake
          net_.send(Datagram{local_, peer, out.encode()});
          if (!early.empty()) {
            // Deliver the 0-RTT stream as if it arrived as stream 0.
            QuicPacket stream0;
            stream0.type = QuicPacketType::Stream;
            stream0.conn_id = out.conn_id;
            stream0.stream_id = 0;
            stream0.seq = 0;
            stream0.total = 1;
            stream0.data = std::move(early);
            live->handle(stream0);
          }
        });
    return;
  }

  if (p.type == QuicPacketType::Close) {
    const auto it = conns_.find(key);
    if (it != conns_.end()) {
      if (on_close_) on_close_(it->second);
      conns_.erase(it);
    }
    return;
  }

  const auto it = conns_.find(key);
  if (it == conns_.end()) return;
  it->second->handle(p);
}

}  // namespace ednsm::transport
