// Reliable message delivery, shared by the TCP and QUIC simulations.
//
// Both protocols carry application messages the same way: a message is cut
// into fixed-size chunks, every chunk is acked on its own, the unacked chunks
// of a message are resent on one timer up to kMaxRetransmissions times, and
// the receiver reassembles the chunks and delivers each message once. The
// protocols differ only in the packet that wraps a chunk or an ack (the
// `send` hook), the chunk size, the retransmission timeout, and how they
// number messages (TCP counts from 1 on each side; QUIC uses stream ids).
//
// A message that is still unacked after its last resend is abandoned
// silently: the query waiting on it fails at its own deadline.
//
// The listeners' per-attempt failure draw (AttemptDraw) and the server
// handshake settings (ServerHandshakeConfig) live here too, because TCP+TLS
// and QUIC decide them the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "netsim/address.h"
#include "netsim/event_queue.h"
#include "netsim/rng.h"
#include "util/bytes.h"

namespace ednsm::transport {

// One chunk of a message, as the engine hands it to the protocol's `send`
// hook. An ack carries the id and seq of the chunk it acknowledges, with
// `total` 0 and no data.
struct Chunk {
  std::uint64_t id = 0;     // message id (TCP message counter, QUIC stream id)
  std::uint16_t seq = 0;    // chunk index within the message
  std::uint16_t total = 0;  // chunks in the message
  util::Bytes data;
};

struct MessageStats {
  std::uint64_t chunks_sent = 0;      // first transmissions
  std::uint64_t retransmissions = 0;  // timer-driven resends
};

class MessageCore {
 public:
  // Wraps a chunk (`ack` false) or an ack (`ack` true) in the protocol's
  // packet and puts it on the network.
  using SendFn = std::function<void(const Chunk& chunk, bool ack)>;
  using MessageHandler = std::function<void(std::uint64_t id, util::Bytes message)>;

  static constexpr int kMaxRetransmissions = 6;

  MessageCore(netsim::EventQueue& queue, std::size_t chunk_bytes,
              netsim::SimDuration retransmit_after, SendFn send);
  ~MessageCore();

  MessageCore(const MessageCore&) = delete;
  MessageCore& operator=(const MessageCore&) = delete;

  void on_message(MessageHandler h) { on_message_ = std::move(h); }

  // Sends every chunk of the message in order, then arms its timer. An
  // empty message still takes one (empty) chunk.
  void send(std::uint64_t id, util::Bytes data);

  // Feed an incoming chunk: it is acked (duplicates too, since the lost
  // packet may have been the ack), then stored; the message is delivered
  // once, when its last chunk arrives.
  void handle_chunk(std::uint64_t id, std::uint16_t seq, std::uint16_t total, util::Bytes data);

  // Feed an incoming ack; the last ack of a message cancels its timer.
  void handle_ack(std::uint64_t id, std::uint16_t seq);

  // Cancel every timer (connection closing).
  void shutdown();

  [[nodiscard]] const MessageStats& stats() const noexcept { return stats_; }

 private:
  struct Outbound {
    std::vector<Chunk> chunks;
    std::set<std::uint16_t> unacked;
    int retransmissions = 0;
    std::optional<netsim::EventQueue::EventId> timer;
  };
  struct Inbound {
    std::map<std::uint16_t, util::Bytes> chunks;
    bool delivered = false;
  };

  void arm_timer(std::uint64_t id);
  void on_timer(std::uint64_t id);

  netsim::EventQueue& queue_;
  std::size_t chunk_bytes_;
  netsim::SimDuration retransmit_after_;
  SendFn send_;
  MessageHandler on_message_;
  std::map<std::uint64_t, Outbound> outbound_;
  std::map<std::uint64_t, Inbound> inbound_;
  MessageStats stats_;
  bool dead_ = false;
};

// A listener decides the fate of a connection attempt (refused, silently
// dropped, handshake failure) from a hash of (listener salt, peer address
// and port, connection id), not from a fresh random draw per packet. A
// retransmitted SYN or Initial of a doomed attempt carries the same key, so
// it stays doomed, and a configured probability is the true per-attempt
// failure rate instead of compounding over retransmissions. Each next() is
// the following splitmix64 uniform of that stream: TCP takes 2 (refuse,
// drop), QUIC 3 (refuse, drop, handshake failure).
class AttemptDraw {
 public:
  AttemptDraw(std::uint64_t salt, const netsim::Endpoint& peer, std::uint64_t conn_id) noexcept
      : state_(salt ^ (static_cast<std::uint64_t>(peer.ip.value) << 24) ^
               (static_cast<std::uint64_t>(peer.port) << 8) ^ conn_id) {}

  // Uniform in [0, 1).
  [[nodiscard]] double next() noexcept {
    return static_cast<double>(netsim::splitmix64(state_) >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// A listener's connection table key: (peer endpoint, connection id). Point
// access only (never iterated), so a hashed map is order-safe.
using ConnKey = std::pair<netsim::Endpoint, std::uint64_t>;

struct ConnKeyHash {
  std::size_t operator()(const ConnKey& k) const noexcept {
    return netsim::EndpointHash{}(k.first) ^ (std::hash<std::uint64_t>{}(k.second) << 1);
  }
};

// What a TLS or QUIC server answers a handshake with. The handshake CPU
// cost is a per-protocol constant (tls.cc, quic.cc), not a setting.
struct ServerHandshakeConfig {
  // Acceptable SNI values. On a mismatch the server presents the first
  // name, which the client rejects.
  std::vector<std::string> certificate_names;
  double handshake_failure_probability = 0.0;  // TLS alert / QUIC Retry instead of accept
  bool accept_early_data = true;
};

}  // namespace ednsm::transport
