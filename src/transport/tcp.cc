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

// ---- reliable-message core --------------------------------------------------

TcpMessageCore::TcpMessageCore(netsim::EventQueue& queue, SendFn send)
    : queue_(queue), send_(std::move(send)) {}

TcpMessageCore::~TcpMessageCore() { shutdown(); }

void TcpMessageCore::shutdown() {
  dead_ = true;
  for (auto& [id, msg] : outbound_) {
    if (msg.rto_timer.has_value()) queue_.cancel(*msg.rto_timer);
    msg.rto_timer.reset();
  }
}

void TcpMessageCore::send_message(util::Bytes data) {
  const std::uint32_t msg_id = next_msg_id_++;
  OutboundMessage out;
  const std::size_t nsegs = data.empty() ? 1 : (data.size() + kTcpMss - 1) / kTcpMss;
  for (std::size_t i = 0; i < nsegs; ++i) {
    TcpSegment seg;
    seg.type = TcpSegmentType::Data;
    seg.msg_id = msg_id;
    seg.seq = static_cast<std::uint16_t>(i);
    seg.total = static_cast<std::uint16_t>(nsegs);
    const std::size_t begin = i * kTcpMss;
    const std::size_t end = std::min(data.size(), begin + kTcpMss);
    seg.data.assign(data.begin() + static_cast<std::ptrdiff_t>(begin),
                    data.begin() + static_cast<std::ptrdiff_t>(end));
    out.unacked.insert(seg.seq);
    out.segments.push_back(std::move(seg));
  }
  for (const TcpSegment& seg : out.segments) {
    ++stats_.data_segments_sent;
    send_(seg);
  }
  outbound_.emplace(msg_id, std::move(out));
  arm_rto(msg_id);
}

void TcpMessageCore::arm_rto(std::uint32_t msg_id) {
  auto it = outbound_.find(msg_id);
  if (it == outbound_.end() || it->second.unacked.empty()) return;
  it->second.rto_timer = queue_.schedule(kDataRto, [this, msg_id] { on_rto(msg_id); });
}

void TcpMessageCore::on_rto(std::uint32_t msg_id) {
  if (dead_) return;
  auto it = outbound_.find(msg_id);
  if (it == outbound_.end() || it->second.unacked.empty()) return;
  OutboundMessage& msg = it->second;
  msg.rto_timer.reset();
  // Out of retries: the message is abandoned, and the query waiting on it
  // fails at its own deadline.
  if (++msg.retries > kMaxDataRetries) return;
  for (std::uint16_t seq : msg.unacked) {
    ++stats_.data_retransmissions;
    send_(msg.segments[seq]);
  }
  arm_rto(msg_id);
}

void TcpMessageCore::handle(const TcpSegment& seg) {
  if (seg.type == TcpSegmentType::DataAck) {
    auto it = outbound_.find(seg.msg_id);
    if (it == outbound_.end()) return;
    it->second.unacked.erase(seg.seq);
    if (it->second.unacked.empty()) {
      if (it->second.rto_timer.has_value()) queue_.cancel(*it->second.rto_timer);
      outbound_.erase(it);
    }
    return;
  }
  if (seg.type != TcpSegmentType::Data) return;

  // Ack every received Data segment (duplicates included: the ack may have
  // been the thing that got lost).
  TcpSegment ack;
  ack.type = TcpSegmentType::DataAck;
  ack.conn_id = seg.conn_id;
  ack.msg_id = seg.msg_id;
  ack.seq = seg.seq;
  send_(ack);

  InboundMessage& in = inbound_[seg.msg_id];
  if (in.delivered) return;
  in.total = seg.total;
  in.chunks.emplace(seg.seq, seg.data);
  if (in.chunks.size() == in.total) {
    in.delivered = true;
    util::Bytes whole;
    for (auto& [s, chunk] : in.chunks) {
      whole.insert(whole.end(), chunk.begin(), chunk.end());
    }
    in.chunks.clear();
    ++stats_.messages_delivered;
    if (on_message_) on_message_(std::move(whole));
  }
}

// ---- client connection ------------------------------------------------------

TcpConnection::TcpConnection(netsim::Network& net, Endpoint local, Endpoint remote,
                             std::uint32_t conn_id)
    : net_(net),
      local_(local),
      remote_(remote),
      conn_id_(conn_id),
      core_(net.queue(), [this](const TcpSegment& seg) { send_segment(seg); }) {
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

void TcpConnection::send_segment(const TcpSegment& seg) {
  TcpSegment out = seg;
  out.conn_id = conn_id_;
  net_.send(Datagram{local_, remote_, out.encode()});
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
  const TcpSegment& seg = seg_r.value();
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
      if (state_ == State::Established) core_.handle(seg);
      return;
    case TcpSegmentType::Fin:
      state_ = State::Closed;
      return;
    default:
      return;
  }
}

void TcpConnection::send_message(util::Bytes data) { core_.send_message(std::move(data)); }

// ---- server conn ------------------------------------------------------------

TcpServerConn::TcpServerConn(netsim::Network& net, Endpoint local, Endpoint peer,
                             std::uint32_t conn_id)
    : net_(net),
      local_(local),
      peer_(peer),
      conn_id_(conn_id),
      core_(net.queue(), [this](const TcpSegment& seg) { send_segment(seg); }) {}

void TcpServerConn::send_segment(const TcpSegment& seg) {
  TcpSegment out = seg;
  out.conn_id = conn_id_;
  net_.send(Datagram{local_, peer_, out.encode()});
}

void TcpServerConn::send_message(util::Bytes data) { core_.send_message(std::move(data)); }

void TcpServerConn::handle(const TcpSegment& seg) {
  if (seg.type == TcpSegmentType::Data || seg.type == TcpSegmentType::DataAck) {
    core_.handle(seg);
  }
}

// ---- listener ---------------------------------------------------------------

TcpListener::TcpListener(netsim::Network& net, Endpoint local)
    : net_(net), local_(local), salt_(net.rng().next_u64()) {
  net_.bind(local_, [this](const Datagram& d) { handle_datagram(d); });
}

TcpListener::~TcpListener() { net_.unbind(local_); }

void TcpListener::handle_datagram(const Datagram& d) {
  auto seg_r = TcpSegment::decode(d.payload);
  if (!seg_r) return;
  const TcpSegment& seg = seg_r.value();
  const auto key = std::make_pair(d.src, seg.conn_id);

  if (seg.type == TcpSegmentType::Syn) {
    // Failure is decided once per connection *attempt*, not per SYN packet:
    // the decision is derived deterministically from (peer, conn_id, salt),
    // so a retransmitted SYN of a doomed attempt stays doomed and the
    // configured probability is the true per-attempt failure rate.
    if (!conns_.contains(key)) {
      std::uint64_t state = salt_ ^ (static_cast<std::uint64_t>(d.src.ip.value) << 24) ^
                            (static_cast<std::uint64_t>(d.src.port) << 8) ^ seg.conn_id;
      const double u_refuse =
          static_cast<double>(netsim::splitmix64(state) >> 11) * 0x1.0p-53;
      const double u_drop =
          static_cast<double>(netsim::splitmix64(state) >> 11) * 0x1.0p-53;
      if (u_refuse < refuse_probability_) {
        TcpSegment rst;
        rst.type = TcpSegmentType::Rst;
        rst.conn_id = seg.conn_id;
        net_.send(Datagram{local_, d.src, rst.encode()});
        return;
      }
      if (u_drop < drop_syn_probability_) {
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
