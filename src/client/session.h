// Unified resolver-session layer: every protocol client presents the same
// polymorphic surface (`query(qname, qtype, cb)` against a bound target),
// and the SessionFactory is the single place a `Protocol` value is turned
// into a concrete client. The measurement layers (probe, campaign, CLI)
// depend only on this interface, so new protocols and scenarios (retry
// policies, fallback chains, new encrypted transports) plug in here without
// touching the callers.
#pragma once

#include <memory>
#include <string>

#include "client/query.h"
#include "netsim/network.h"
#include "transport/pool.h"

namespace ednsm::client {

// Where a session's queries go. Direct protocols use (server, hostname);
// ODoH reaches `hostname` (the target resolver) through the relay at
// (relay, relay_sni) and never contacts `server` directly.
struct SessionTarget {
  netsim::IpAddr server{};
  std::string hostname;       // TLS SNI / HTTP authority / ODoH target
  netsim::IpAddr relay{};     // ODoH only
  std::string relay_sni;      // ODoH only
};

// One measurement session against one resolver target. Implementations run
// the PendingQuery lifecycle from client/query.h: the callback fires exactly
// once with a response, an error, or a timeout.
class ResolverSession {
 public:
  virtual ~ResolverSession() = default;

  virtual void query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) = 0;

  [[nodiscard]] virtual Protocol protocol() const noexcept = 0;
  [[nodiscard]] virtual const SessionTarget& target() const noexcept = 0;
};

// The single Protocol -> concrete client dispatch in the codebase.
class SessionFactory {
 public:
  // `pool` is the vantage host's shared connection pool: it owns every
  // reusable connection (DoT/DoH/ODoH over TLS, DoQ over QUIC), and its
  // address hosts Do53's UDP sockets.
  SessionFactory(netsim::Network& net, transport::ConnectionPool& pool);

  [[nodiscard]] std::unique_ptr<ResolverSession> create(Protocol protocol, SessionTarget target,
                                                        QueryOptions options = {}) const;

 private:
  netsim::Network& net_;
  transport::ConnectionPool& pool_;
};

}  // namespace ednsm::client
