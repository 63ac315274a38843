// DoQ client (RFC 9250): DNS over dedicated QUIC connections. Each query
// rides its own stream (one round trip on a warm connection, two cold —
// one fewer than DoH/DoT because QUIC folds transport and crypto setup into
// a single flight), and 0-RTT resumption can push a query into the first
// packet.
//
// Connections come from the vantage's shared pool (acquire_quic), so reuse
// and resumption follow the same ReusePolicy, tickets and stats as DoT and
// DoH; the client keeps only the wire exchange.
#pragma once

#include <string>

#include "client/query.h"
#include "client/session.h"
#include "netsim/network.h"
#include "transport/pool.h"

namespace ednsm::client {

class DoqClient : public ResolverSession {
 public:
  // The pool is shared with other clients on the same vantage host.
  DoqClient(netsim::Network& net, transport::ConnectionPool& pool, QueryOptions options = {});
  // Session-bound form: ResolverSession::query goes to (target.server,
  // target.hostname).
  DoqClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
            QueryOptions options = {});

  // Resolve (qname, qtype) against the DoQ endpoint of `server`. Callback
  // fires exactly once.
  void query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
             dns::RecordType qtype, QueryCallback cb);

  // ResolverSession:
  void query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) override;
  [[nodiscard]] Protocol protocol() const noexcept override { return Protocol::DoQ; }
  [[nodiscard]] const SessionTarget& target() const noexcept override { return target_; }

 private:
  netsim::Network& net_;
  transport::ConnectionPool& pool_;
  SessionTarget target_;
  QueryOptions options_;
};

}  // namespace ednsm::client
