// Message-level TCP simulation.
//
// What is faithful: the 3-way handshake costs one round trip before data can
// flow; connection refusal (RST) and silent SYN loss produce the distinct
// "failure to establish a connection" errors the paper reports; segment loss
// triggers retransmission timeouts that create the latency tail; every
// message is chunked into MSS-sized segments that are individually delayed,
// lost, reordered, and reassembled (transport::MessageCore, shared with
// QUIC).
//
// What is simplified (documented in DESIGN.md): the byte-stream is modeled as
// a sequence of framed messages (one per application write), there is no
// congestion/flow control, and ACK clocking is per-segment rather than
// cumulative. DNS response-time shape depends on handshake round trips and
// loss recovery, both of which are modeled; it does not depend on cwnd
// dynamics at these message sizes (a DoH exchange fits in the initial
// window).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "netsim/network.h"
#include "transport/messages.h"
#include "util/result.h"

namespace ednsm::transport {

// The message engine's (MessageCore) constants for TCP.
inline constexpr std::size_t kTcpMss = 1400;  // data bytes per segment
inline constexpr netsim::SimDuration kTcpDataRto = std::chrono::milliseconds(300);

enum class TcpSegmentType : std::uint8_t {
  Syn = 1,
  SynAck = 2,
  Ack = 3,
  Data = 4,
  DataAck = 5,
  Fin = 6,
  Rst = 7,
};

// On-the-wire segment header (encoded big-endian ahead of the data chunk).
struct TcpSegment {
  TcpSegmentType type = TcpSegmentType::Syn;
  std::uint32_t conn_id = 0;
  std::uint32_t msg_id = 0;   // message counter (Data/DataAck)
  std::uint16_t seq = 0;      // segment index within the message
  std::uint16_t total = 0;    // total segments in the message (Data)
  util::Bytes data;

  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static Result<TcpSegment> decode(std::span<const std::uint8_t> wire);
};

// Client-side connection. Binds `local` for the connection's lifetime.
class TcpConnection {
 public:
  using ConnectCallback = std::function<void(Result<void>)>;

  TcpConnection(netsim::Network& net, netsim::Endpoint local, netsim::Endpoint remote,
                std::uint32_t conn_id);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Begin the 3-way handshake. The callback fires exactly once. SYNs are
  // retransmitted with exponential backoff; exhausting retries or receiving
  // RST fails the connect.
  void connect(ConnectCallback cb);

  void send_message(util::Bytes data) { core_.send(next_msg_id_++, std::move(data)); }
  void on_message(MessageCore::MessageHandler h) { core_.on_message(std::move(h)); }

  [[nodiscard]] bool established() const noexcept { return state_ == State::Established; }
  [[nodiscard]] const netsim::Endpoint& local() const noexcept { return local_; }
  [[nodiscard]] const netsim::Endpoint& remote() const noexcept { return remote_; }
  [[nodiscard]] const MessageStats& stats() const noexcept { return core_.stats(); }
  [[nodiscard]] std::uint32_t conn_id() const noexcept { return conn_id_; }

  // Phase stamp: SYN sent -> SYNACK received (zero until established). Feeds
  // QueryTiming::tcp_handshake through the pool lease.
  [[nodiscard]] netsim::SimDuration handshake_duration() const noexcept {
    return handshake_duration_;
  }
  // Layered protocols above TCP (TLS) stamp their own phases but have no
  // network handle of their own; they borrow the connection's clock.
  [[nodiscard]] netsim::EventQueue& queue() noexcept { return net_.queue(); }

 private:
  enum class State { Closed, SynSent, Established };

  void handle_datagram(const netsim::Datagram& d);
  void send_segment(TcpSegment seg);
  void retransmit_syn();
  void fail_connect(const std::string& why);

  netsim::Network& net_;
  netsim::Endpoint local_;
  netsim::Endpoint remote_;
  std::uint32_t conn_id_;
  State state_ = State::Closed;
  ConnectCallback connect_cb_;
  MessageCore core_;
  std::uint32_t next_msg_id_ = 1;
  std::optional<netsim::EventQueue::EventId> syn_timer_;
  int syn_transmissions_ = 0;
  netsim::SimTime connect_started_{0};
  netsim::SimDuration handshake_duration_{0};

  static constexpr netsim::SimDuration kSynRtoInitial = std::chrono::seconds(1);
  static constexpr int kMaxSynTransmissions = 3;
};

// Server side of one accepted connection; owned by the listener.
class TcpServerConn {
 public:
  TcpServerConn(netsim::Network& net, netsim::Endpoint local, netsim::Endpoint peer,
                std::uint32_t conn_id);

  void send_message(util::Bytes data) { core_.send(next_msg_id_++, std::move(data)); }
  void on_message(MessageCore::MessageHandler h) { core_.on_message(std::move(h)); }

  // Feed a segment demuxed by the listener.
  void handle(TcpSegment& seg);

  [[nodiscard]] std::uint32_t conn_id() const noexcept { return conn_id_; }

 private:
  netsim::Network& net_;
  netsim::Endpoint local_;
  netsim::Endpoint peer_;
  std::uint32_t conn_id_;
  MessageCore core_;
  std::uint32_t next_msg_id_ = 1;
};

// Listening socket: demuxes segments to per-(peer, conn_id) server conns.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(TcpServerConn&)>;

  TcpListener(netsim::Network& net, netsim::Endpoint local);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  void on_accept(AcceptHandler h) { on_accept_ = std::move(h); }

  // Fired just before a connection is torn down (peer FIN) so owners of
  // per-connection state can release it.
  void on_close(AcceptHandler h) { on_close_ = std::move(h); }

  // Failure injection (driven by the resolver availability model), decided
  // once per connection attempt (AttemptDraw): refuse_probability -> RST in
  // response to SYN ("connection refused"); drop_probability -> SYN silently
  // ignored ("connection timeout").
  void set_refuse_probability(double p) noexcept { refuse_probability_ = p; }
  void set_drop_probability(double p) noexcept { drop_probability_ = p; }

  // ednsm-lint: allow(hygiene-dead-function) — Tcp.FinReleasesServerConnection checks that a FIN
  // frees the server connection.
  [[nodiscard]] std::size_t connection_count() const noexcept { return conns_.size(); }

 private:
  void handle_datagram(const netsim::Datagram& d);

  netsim::Network& net_;
  netsim::Endpoint local_;
  AcceptHandler on_accept_;
  AcceptHandler on_close_;
  double refuse_probability_ = 0.0;
  double drop_probability_ = 0.0;
  std::uint64_t salt_ = 0;  // per-listener seed for the per-attempt failure hash
  std::unordered_map<ConnKey, std::unique_ptr<TcpServerConn>, ConnKeyHash> conns_;
};

}  // namespace ednsm::transport
