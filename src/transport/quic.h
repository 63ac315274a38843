// QUIC transport simulation (RFC 9000/9001 subset) — the substrate for
// DNS-over-QUIC (RFC 9250), the protocol the encrypted-DNS ecosystem is
// moving toward and a natural extension of the paper's measurements.
//
// Faithful parts:
//   - the combined transport+crypto handshake costs ONE round trip before
//     application data flows (vs TCP's one + TLS's one);
//   - 0-RTT resumption carries application data in the first flight;
//   - each application message rides its own stream: packets of different
//     streams are delivered independently, so one lost packet never blocks
//     another stream (no transport head-of-line blocking);
//   - packet loss is recovered by PTO-style retransmission
//     (transport::MessageCore, shared with TCP);
//   - connection IDs demultiplex on a single UDP port; SNI is verified.
//
// Simplified (like the TCP/TLS sims): no congestion control, no real
// cryptography, stream payloads framed as whole messages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "netsim/network.h"
#include "transport/messages.h"
#include "transport/tls.h"  // SessionTicket, TlsMode
#include "util/result.h"

namespace ednsm::transport {

// The message engine's (MessageCore) constants for QUIC.
inline constexpr std::size_t kQuicMaxPayload = 1200;  // QUIC datagram budget
inline constexpr netsim::SimDuration kQuicPto = std::chrono::milliseconds(250);

enum class QuicPacketType : std::uint8_t {
  Initial = 1,        // client hello (flags: mode, sni, ticket, early stream)
  ServerInitial = 2,  // server hello + handshake done (ticket, cert name)
  Stream = 3,         // stream data chunk
  StreamAck = 4,
  Retry = 5,          // server refusal ("connection refused" analog)
  Close = 6,
};

struct QuicPacket {
  QuicPacketType type = QuicPacketType::Initial;
  std::uint64_t conn_id = 0;
  std::uint64_t stream_id = 0;
  std::uint16_t seq = 0;    // chunk index within the stream message
  std::uint16_t total = 0;  // chunks in the stream message
  util::Bytes data;

  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static Result<QuicPacket> decode(std::span<const std::uint8_t> wire);
};

// QUIC's crypto handshake is TLS 1.3 (RFC 9001), with the same outcome.
using QuicHandshakeInfo = TlsHandshakeInfo;

// ---- client ------------------------------------------------------------------

class QuicConnection {
 public:
  using ConnectCallback = std::function<void(Result<QuicHandshakeInfo>)>;
  using StreamHandler = MessageCore::MessageHandler;

  QuicConnection(netsim::Network& net, netsim::Endpoint local, netsim::Endpoint remote,
                 std::string sni, std::uint64_t conn_id);
  ~QuicConnection();

  QuicConnection(const QuicConnection&) = delete;
  QuicConnection& operator=(const QuicConnection&) = delete;

  // One round trip (Full/Resume); with EarlyData the `early_stream` payload
  // is delivered to the server inside the first flight (stream id 0).
  void connect(TlsMode mode, std::optional<SessionTicket> ticket, util::Bytes early_stream,
               ConnectCallback cb);

  // Returns the new stream's id (client streams: 0, 4, 8, ... per RFC 9000).
  std::uint64_t send_stream(util::Bytes data);

  void on_stream(StreamHandler h) { core_.on_message(std::move(h)); }
  void close();

  [[nodiscard]] bool established() const noexcept { return established_; }
  [[nodiscard]] const MessageStats& stats() const noexcept { return core_.stats(); }

  // Phase stamp: Initial sent -> ServerInitial accepted (zero until
  // established). Feeds QueryTiming::quic_handshake.
  [[nodiscard]] netsim::SimDuration handshake_duration() const noexcept {
    return handshake_duration_;
  }

 private:
  void handle_datagram(const netsim::Datagram& d);
  void send_packet(QuicPacket p);
  void retransmit_initial();
  void fail_connect(const std::string& why);

  netsim::Network& net_;
  netsim::Endpoint local_;
  netsim::Endpoint remote_;
  std::string sni_;
  std::uint64_t conn_id_;
  MessageCore core_;
  ConnectCallback connect_cb_;
  bool established_ = false;
  std::uint64_t next_stream_id_ = 0;
  std::optional<netsim::EventQueue::EventId> initial_timer_;
  int initial_transmissions_ = 0;
  netsim::SimTime connect_started_{0};
  netsim::SimDuration handshake_duration_{0};
  TlsMode mode_ = TlsMode::Full;
  util::Bytes pending_early_;  // resent as a normal stream if 0-RTT is rejected
  QuicPacket pending_initial_;  // kept for Initial retransmission
  // Stream packets that outran the ServerInitial under reordering; replayed
  // once the handshake completes (dropped if it fails).
  std::vector<QuicPacket> reordered_;
  // Set while that replay runs; the destructor raises it, because a stream
  // handler may destroy this connection (the answered query's caller can
  // start the next one, whose acquire replaces it in the pool).
  bool* destroyed_during_replay_ = nullptr;

  static constexpr netsim::SimDuration kInitialPto = std::chrono::seconds(1);
  static constexpr int kMaxInitialTransmissions = 3;
};

// ---- server ------------------------------------------------------------------

class QuicServerConn {
 public:
  QuicServerConn(netsim::EventQueue& queue, MessageCore::SendFn send);

  void on_stream(MessageCore::MessageHandler h) { core_.on_message(std::move(h)); }
  // Replies go out on the request's stream id.
  void send_stream(std::uint64_t stream_id, util::Bytes data) {
    core_.send(stream_id, std::move(data));
  }
  // Feed a Stream or StreamAck packet demuxed by the listener.
  void handle(QuicPacket& p);

 private:
  MessageCore core_;
};

class QuicListener {
 public:
  // Handlers receive the shared_ptr so deferred work (a query answer behind
  // a recursion stall) can hold a weak reference and detect teardown.
  using AcceptHandler = std::function<void(const std::shared_ptr<QuicServerConn>&)>;

  QuicListener(netsim::Network& net, netsim::Endpoint local, ServerHandshakeConfig config);
  ~QuicListener();

  QuicListener(const QuicListener&) = delete;
  QuicListener& operator=(const QuicListener&) = delete;

  void on_accept(AcceptHandler h) { on_accept_ = std::move(h); }
  void on_close(AcceptHandler h) { on_close_ = std::move(h); }

  // Failure injection, as on the TCP listener: decided once per connection
  // attempt (AttemptDraw).
  void set_refuse_probability(double p) noexcept { refuse_probability_ = p; }
  void set_drop_probability(double p) noexcept { drop_probability_ = p; }

  // ednsm-lint: allow(hygiene-dead-function) — Quic.CloseReleasesServerState checks that a close
  // frees the server connection.
  [[nodiscard]] std::size_t connection_count() const noexcept { return conns_.size(); }

 private:
  void handle_datagram(const netsim::Datagram& d);

  netsim::Network& net_;
  netsim::Endpoint local_;
  ServerHandshakeConfig config_;
  AcceptHandler on_accept_;
  AcceptHandler on_close_;
  double refuse_probability_ = 0.0;
  double drop_probability_ = 0.0;
  std::uint64_t salt_;
  std::uint64_t next_ticket_id_;
  std::unordered_map<ConnKey, std::shared_ptr<QuicServerConn>, ConnKeyHash> conns_;
};

}  // namespace ednsm::transport
