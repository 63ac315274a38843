// Oblivious DoH client (RFC 9230): resolves through a relay so the target
// resolver never sees the client's address. Costs the client<->relay path on
// top of the relay<->target path — the privacy/latency tradeoff quantified by
// bench_odoh.
#pragma once

#include <string>

#include "client/query.h"
#include "client/session.h"
#include "netsim/network.h"
#include "transport/pool.h"

namespace ednsm::client {

class OdohClient : public ResolverSession {
 public:
  // ResolverSession::query reaches target.hostname via the relay at
  // (target.relay, target.relay_sni).
  OdohClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
             QueryOptions options = {});

  // Resolve (qname, qtype) at `target_hostname` via the relay at
  // `relay`/`relay_sni`. Callback fires exactly once.
  void query(netsim::IpAddr relay, const std::string& relay_sni,
             const std::string& target_hostname, const dns::Name& qname,
             dns::RecordType qtype, QueryCallback cb);

  // ResolverSession:
  void query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) override;
  [[nodiscard]] Protocol protocol() const noexcept override { return Protocol::ODoH; }
  [[nodiscard]] const SessionTarget& target() const noexcept override { return target_; }

 private:
  netsim::Network& net_;
  transport::ConnectionPool& pool_;
  SessionTarget target_;
  QueryOptions options_;
};

}  // namespace ednsm::client
