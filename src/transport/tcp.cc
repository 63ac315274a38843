#include "transport/tcp.h"

#include "dns/wire.h"
#include "obs/trace.h"

namespace ednsm::transport {

using netsim::Datagram;
using netsim::Endpoint;

// ---- segment codec ----------------------------------------------------------

util::Bytes TcpSegment::encode() const {
  dns::WireWriter w;
  w.reserve(13 + data.size());  // fixed header + payload
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(conn_id);
  w.u32(msg_id);
  w.u16(seq);
  w.u16(total);
  w.bytes(data);
  return std::move(w).take();
}

Result<TcpSegment> TcpSegment::decode(std::span<const std::uint8_t> wire) {
  dns::WireReader r(wire);
  TcpSegment seg;
  auto type = r.u8();
  if (!type) return Err{std::string("tcp: truncated segment")};
  if (type.value() < 1 || type.value() > 7) return Err{std::string("tcp: bad segment type")};
  seg.type = static_cast<TcpSegmentType>(type.value());
  auto conn = r.u32();
  if (!conn) return Err{std::string("tcp: truncated segment")};
  seg.conn_id = conn.value();
  auto msg = r.u32();
  if (!msg) return Err{std::string("tcp: truncated segment")};
  seg.msg_id = msg.value();
  auto seq = r.u16();
  if (!seq) return Err{std::string("tcp: truncated segment")};
  seg.seq = seq.value();
  auto total = r.u16();
  if (!total) return Err{std::string("tcp: truncated segment")};
  seg.total = total.value();
  auto data = r.bytes(r.remaining());
  if (!data) return Err{std::string("tcp: truncated segment")};
  seg.data = std::move(data).value();
  return seg;
}

namespace {

// Wraps one of MessageCore's chunks or acks in a Data or DataAck segment.
TcpSegment data_segment(const Chunk& chunk, bool ack) {
  TcpSegment seg;
  seg.type = ack ? TcpSegmentType::DataAck : TcpSegmentType::Data;
  seg.msg_id = static_cast<std::uint32_t>(chunk.id);
  seg.seq = chunk.seq;
  seg.total = chunk.total;
  seg.data = chunk.data;
  return seg;
}

// Hands a Data or DataAck segment to the message engine; other types are
// the connection's business.
void feed(MessageCore& core, TcpSegment& seg) {
  if (seg.type == TcpSegmentType::Data) {
    core.handle_chunk(seg.msg_id, seg.seq, seg.total, std::move(seg.data));
  } else if (seg.type == TcpSegmentType::DataAck) {
    core.handle_ack(seg.msg_id, seg.seq);
  }
}

}  // namespace

// ---- client connection ------------------------------------------------------

TcpConnection::TcpConnection(netsim::Network& net, Endpoint local, Endpoint remote,
                             std::uint32_t conn_id)
    : net_(net),
      local_(local),
      remote_(remote),
      conn_id_(conn_id),
      core_(net.queue(), kTcpMss, kTcpDataRto,
            [this](const Chunk& chunk, bool ack) { send_segment(data_segment(chunk, ack)); }) {
  net_.bind(local_, [this](const Datagram& d) { handle_datagram(d); });
}

TcpConnection::~TcpConnection() {
  if (state_ == State::Established) {
    TcpSegment fin;
    fin.type = TcpSegmentType::Fin;
    send_segment(fin);  // let the server release per-connection state
  }
  core_.shutdown();
  if (syn_timer_.has_value()) net_.queue().cancel(*syn_timer_);
  net_.unbind(local_);
}

void TcpConnection::send_segment(TcpSegment seg) {
  seg.conn_id = conn_id_;
  net_.send(Datagram{local_, remote_, seg.encode()});
}

void TcpConnection::connect(ConnectCallback cb) {
  connect_cb_ = std::move(cb);
  state_ = State::SynSent;
  connect_started_ = net_.queue().now();
  retransmit_syn();
}

void TcpConnection::retransmit_syn() {
  if (state_ != State::SynSent) return;
  if (syn_transmissions_ >= kMaxSynTransmissions) {
    fail_connect("tcp: connection timed out (SYN retries exhausted)");
    return;
  }
  ++syn_transmissions_;
  TcpSegment syn;
  syn.type = TcpSegmentType::Syn;
  send_segment(syn);
  // Exponential backoff: 1s, 2s, 4s ...
  const auto backoff = kSynRtoInitial * (1 << (syn_transmissions_ - 1));
  syn_timer_ = net_.queue().schedule(backoff, [this] { retransmit_syn(); });
}

void TcpConnection::fail_connect(const std::string& why) {
  state_ = State::Closed;
  OBS_EVENT(net_.queue(), "transport", "tcp-connect-fail");
  if (syn_timer_.has_value()) {
    net_.queue().cancel(*syn_timer_);
    syn_timer_.reset();
  }
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(Err{why});
  }
}

void TcpConnection::handle_datagram(const Datagram& d) {
  auto seg_r = TcpSegment::decode(d.payload);
  if (!seg_r) return;  // garbage on the wire: drop, like a real stack
  TcpSegment& seg = seg_r.value();
  if (seg.conn_id != conn_id_) return;

  switch (seg.type) {
    case TcpSegmentType::SynAck: {
      if (state_ != State::SynSent) return;  // duplicate SYNACK
      state_ = State::Established;
      handshake_duration_ = net_.queue().now() - connect_started_;
      OBS_COMPLETE(net_.queue(), "transport", "tcp-handshake", connect_started_,
                   handshake_duration_);
      if (syn_timer_.has_value()) {
        net_.queue().cancel(*syn_timer_);
        syn_timer_.reset();
      }
      TcpSegment ack;
      ack.type = TcpSegmentType::Ack;
      send_segment(ack);
      if (connect_cb_) {
        auto cb = std::move(connect_cb_);
        connect_cb_ = nullptr;
        cb(Result<void>{});
      }
      return;
    }
    case TcpSegmentType::Rst: {
      if (state_ == State::SynSent) {
        fail_connect("tcp: connection refused (RST)");
      } else {
        state_ = State::Closed;
      }
      return;
    }
    case TcpSegmentType::Data:
    case TcpSegmentType::DataAck:
      if (state_ == State::Established) feed(core_, seg);
      return;
    case TcpSegmentType::Fin:
      state_ = State::Closed;
      return;
    default:
      return;
  }
}

// ---- server conn ------------------------------------------------------------

TcpServerConn::TcpServerConn(netsim::Network& net, Endpoint local, Endpoint peer,
                             std::uint32_t conn_id)
    : net_(net),
      local_(local),
      peer_(peer),
      conn_id_(conn_id),
      core_(net.queue(), kTcpMss, kTcpDataRto, [this](const Chunk& chunk, bool ack) {
        TcpSegment seg = data_segment(chunk, ack);
        seg.conn_id = conn_id_;
        net_.send(Datagram{local_, peer_, seg.encode()});
      }) {}

void TcpServerConn::handle(TcpSegment& seg) { feed(core_, seg); }

// ---- listener ---------------------------------------------------------------

TcpListener::TcpListener(netsim::Network& net, Endpoint local)
    : net_(net), local_(local), salt_(net.rng().next_u64()) {
  net_.bind(local_, [this](const Datagram& d) { handle_datagram(d); });
}

TcpListener::~TcpListener() { net_.unbind(local_); }

void TcpListener::handle_datagram(const Datagram& d) {
  auto seg_r = TcpSegment::decode(d.payload);
  if (!seg_r) return;
  TcpSegment& seg = seg_r.value();
  const ConnKey key{d.src, seg.conn_id};

  if (seg.type == TcpSegmentType::Syn) {
    if (!conns_.contains(key)) {
      AttemptDraw draw(salt_, d.src, seg.conn_id);
      const double u_refuse = draw.next();
      const double u_drop = draw.next();
      if (u_refuse < refuse_probability_) {
        TcpSegment rst;
        rst.type = TcpSegmentType::Rst;
        rst.conn_id = seg.conn_id;
        net_.send(Datagram{local_, d.src, rst.encode()});
        return;
      }
      if (u_drop < drop_probability_) {
        return;  // listener under duress: SYN silently dropped
      }
    }
    auto it = conns_.find(key);
    if (it == conns_.end()) {
      auto conn = std::make_unique<TcpServerConn>(net_, local_, d.src, seg.conn_id);
      it = conns_.emplace(key, std::move(conn)).first;
      if (on_accept_) on_accept_(*it->second);
    }
    // (Re-)send SYNACK — handles duplicate SYNs from client retransmits.
    TcpSegment synack;
    synack.type = TcpSegmentType::SynAck;
    synack.conn_id = seg.conn_id;
    net_.send(Datagram{local_, d.src, synack.encode()});
    return;
  }

  if (seg.type == TcpSegmentType::Fin) {
    const auto it = conns_.find(key);
    if (it != conns_.end()) {
      if (on_close_) on_close_(*it->second);
      conns_.erase(it);
    }
    return;
  }

  const auto it = conns_.find(key);
  if (it == conns_.end()) {
    // Data for an unknown connection: RST, matching real stack behaviour.
    if (seg.type == TcpSegmentType::Data) {
      TcpSegment rst;
      rst.type = TcpSegmentType::Rst;
      rst.conn_id = seg.conn_id;
      net_.send(Datagram{local_, d.src, rst.encode()});
    }
    return;
  }
  it->second->handle(seg);
}

}  // namespace ednsm::transport
