// DoH client (RFC 8484): DNS over HTTPS on port 443, via HTTP/2 (default)
// or HTTP/1.1, GET or POST, with connection reuse and optional 0-RTT early
// data through the shared pool. This is the protocol the paper measures.
#pragma once

#include <string>

#include "client/query.h"
#include "client/session.h"
#include "netsim/network.h"
#include "transport/pool.h"

namespace ednsm::client {

class DohClient : public ResolverSession {
 public:
  DohClient(netsim::Network& net, transport::ConnectionPool& pool, QueryOptions options = {});
  // Session-bound form: ResolverSession::query goes to (target.server,
  // target.hostname).
  DohClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
            QueryOptions options = {});

  // Resolve (qname, qtype) against https://<sni>/dns-query at `server`.
  // Callback fires exactly once.
  void query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
             dns::RecordType qtype, QueryCallback cb);

  // ResolverSession:
  void query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) override;
  [[nodiscard]] Protocol protocol() const noexcept override { return Protocol::DoH; }
  [[nodiscard]] const SessionTarget& target() const noexcept override { return target_; }

 private:
  netsim::Network& net_;
  transport::ConnectionPool& pool_;
  SessionTarget target_;
  QueryOptions options_;
};

}  // namespace ednsm::client
