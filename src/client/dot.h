// DoT client (RFC 7858): DNS over TLS on port 853, 2-byte length framing,
// connections acquired through the shared pool (so reuse policies apply).
#pragma once

#include <memory>

#include "client/query.h"
#include "client/session.h"
#include "netsim/network.h"
#include "transport/pool.h"

namespace ednsm::client {

class DotClient : public ResolverSession {
 public:
  // The pool is shared with other clients on the same vantage host.
  DotClient(netsim::Network& net, transport::ConnectionPool& pool, QueryOptions options = {});
  // Session-bound form: ResolverSession::query goes to (target.server,
  // target.hostname).
  DotClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
            QueryOptions options = {});

  // Resolve (qname, qtype) against the DoT endpoint of `server`, verifying
  // the TLS certificate against `sni`. Callback fires exactly once.
  void query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
             dns::RecordType qtype, QueryCallback cb);

  // ResolverSession:
  void query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) override;
  [[nodiscard]] Protocol protocol() const noexcept override { return Protocol::DoT; }
  [[nodiscard]] const SessionTarget& target() const noexcept override { return target_; }

 private:
  netsim::Network& net_;
  transport::ConnectionPool& pool_;
  SessionTarget target_;
  QueryOptions options_;
};

}  // namespace ednsm::client
