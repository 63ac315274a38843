// Connection pool for one vantage host: the one owner of its reusable
// connections, TLS over TCP (DoT, DoH, ODoH) and QUIC (DoQ) alike.
//
// Encrypted DNS cost is dominated by connection setup (TCP + TLS round
// trips, or QUIC's combined one); Zhu et al. and Böttger et al. both show
// the overhead is largely amortized by connection re-use. The pool
// implements the three policies the ablation bench compares:
//   None              every query pays a fresh connection and full handshake
//   Keepalive         live sessions are re-used while they last
//   TicketResumption  like Keepalive, plus PSK tickets cut the crypto cost
//                     (and optionally carry 0-RTT early data) after a session
//                     dies
// Both transports share one acquire path; they differ only in how a fresh
// connection is built and handshaken.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "transport/quic.h"
#include "transport/tcp.h"
#include "transport/tls.h"
#include "transport/udp.h"

namespace ednsm::transport {

enum class ReusePolicy {
  None,
  Keepalive,
  TicketResumption,
};

[[nodiscard]] std::string_view to_string(ReusePolicy p) noexcept;

// Inverse of to_string (exact match); nullopt for unknown names. Shared by
// spec parsing and the CLI tools.
[[nodiscard]] std::optional<ReusePolicy> reuse_policy_from_string(std::string_view name) noexcept;

// (remote endpoint, SNI) key for per-destination session caches. All users
// are point-access only (find/erase, never iterated), so a hashed map is
// order-safe; the endpoint packs to one u64 (EndpointHash) and is mixed with
// the SNI hash, following the listeners' ConnKeyHash idiom.
struct SessionKey {
  netsim::Endpoint remote;
  std::string sni;

  [[nodiscard]] bool operator==(const SessionKey&) const = default;
};

struct SessionKeyHash {
  [[nodiscard]] std::size_t operator()(const SessionKey& k) const noexcept {
    return netsim::EndpointHash{}(k.remote) ^ (std::hash<std::string>{}(k.sni) << 1);
  }
};

// Lease-lifecycle counters for the "transport.pool_*" metrics. `reused` and
// `fresh` partition successful acquires; `handshake_failures` counts acquires
// that died in TCP connect or in the TLS or QUIC handshake.
struct PoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
  std::uint64_t handshake_failures = 0;
};

class ConnectionPool {
 public:
  // A leased session: valid until invalidate(), or until a later acquire
  // for the same (remote, SNI) replaces the session (policy None always
  // does, the others when the pooled session is not established). It
  // carries `tls` from acquire(), `quic` from acquire_quic(). `fresh` says
  // the lease paid connection setup; `early_data_accepted` says the request
  // already reached the server inside the handshake (0-RTT).
  struct Lease {
    TlsClient* tls = nullptr;
    QuicConnection* quic = nullptr;
    bool fresh = false;
    TlsMode mode = TlsMode::Full;
    bool early_data_accepted = false;
    // Phase breakdown of a fresh acquire (all zero on re-use): the handshake
    // round trips as stamped by the transports, plus whatever acquire time
    // is attributable to none of them (pool queueing/scheduling).
    netsim::SimDuration tcp_handshake{0};
    netsim::SimDuration tls_handshake{0};
    netsim::SimDuration quic_handshake{0};
    netsim::SimDuration wait_in_pool{0};
    // The connection's application-protocol slot (e.g. an HTTP/2 session's
    // stream ids and HPACK tables), set on every lease the pool hands out.
    // Empty on a fresh connection; whatever a client stores there lives
    // exactly as long as the pooled connection, so the next lease of the
    // same connection finds it.
    std::shared_ptr<void>* protocol_state = nullptr;
  };
  using AcquireCallback = std::function<void(Result<Lease>)>;

  ConnectionPool(netsim::Network& net, netsim::IpAddr local_ip);
  ~ConnectionPool();

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  // Ensure an established TLS-over-TCP session to (remote, sni). With
  // TicketResumption and a stored ticket, `early_data` (if non-empty) is
  // offered as 0-RTT. The callback fires exactly once.
  void acquire(const netsim::Endpoint& remote, const std::string& sni, ReusePolicy policy,
               util::Bytes early_data, AcquireCallback cb);

  // The same for a QUIC connection (DoQ); 0-RTT `early_data` reaches the
  // server as stream 0, replayed there if the server rejects it.
  void acquire_quic(const netsim::Endpoint& remote, const std::string& sni, ReusePolicy policy,
                    util::Bytes early_data, AcquireCallback cb);

  // Drop the pooled session for (remote, sni) — call after transport errors.
  // The stored ticket survives (real clients retry with resumption).
  void invalidate(const netsim::Endpoint& remote, const std::string& sni);

  // ednsm-lint: allow(hygiene-dead-function) — the Pool.* and Clients.* tests (e.g.
  // Pool.KeepaliveReusesLiveSession) count the sessions the pool holds.
  [[nodiscard]] std::size_t live_sessions() const noexcept { return sessions_.size(); }
  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool has_ticket(const netsim::Endpoint& remote, const std::string& sni) const;
  [[nodiscard]] netsim::IpAddr local_ip() const noexcept { return local_ip_; }

 private:
  // One pooled connection, TLS over TCP or QUIC (defined in pool.cc).
  struct Session;
  struct TlsSession;
  struct QuicSession;
  // The acquire path both transports share; a fresh acquire builds an S.
  template <typename S>
  void acquire_as(const netsim::Endpoint& remote, const std::string& sni, ReusePolicy policy,
                  util::Bytes early_data, AcquireCallback cb);

  netsim::Network& net_;
  netsim::IpAddr local_ip_;
  std::uint32_t next_conn_id_ = 1;
  PoolStats stats_;
  // Point access only (never iterated) — hashed, like the listener conn maps.
  std::unordered_map<SessionKey, std::unique_ptr<Session>, SessionKeyHash> sessions_;
  std::unordered_map<SessionKey, SessionTicket, SessionKeyHash> tickets_;
};

}  // namespace ednsm::transport
