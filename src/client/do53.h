// Do53 client: plain DNS over UDP with dig-like retransmission (retry after
// 2 s, overall deadline from QueryOptions). The baseline protocol in the
// ablation benches.
#pragma once

#include <memory>

#include "client/query.h"
#include "client/session.h"
#include "netsim/network.h"
#include "transport/udp.h"

namespace ednsm::client {

class Do53Client : public ResolverSession {
 public:
  Do53Client(netsim::Network& net, netsim::IpAddr local_ip, QueryOptions options = {});
  // Session-bound form: ResolverSession::query goes to `target.server`.
  Do53Client(netsim::Network& net, netsim::IpAddr local_ip, SessionTarget target,
             QueryOptions options = {});

  // Resolve (qname, qtype) against `server` (port 53). Callback fires once.
  void query(netsim::IpAddr server, const dns::Name& qname, dns::RecordType qtype,
             QueryCallback cb);

  // ResolverSession:
  void query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) override;
  [[nodiscard]] Protocol protocol() const noexcept override { return Protocol::Do53; }
  [[nodiscard]] const SessionTarget& target() const noexcept override { return target_; }

 private:
  netsim::Network& net_;
  netsim::IpAddr local_ip_;
  SessionTarget target_;
  QueryOptions options_;
  std::uint64_t inflight_ = 0;  // live query states (for leak checks in tests)

 public:
  // ednsm-lint: allow(hygiene-dead-function) — Server.AnswersDo53Query checks that an answered
  // query releases its state.
  [[nodiscard]] std::uint64_t inflight() const noexcept { return inflight_; }
};

}  // namespace ednsm::client
