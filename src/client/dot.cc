#include "client/dot.h"

#include "obs/trace.h"
#include "resolver/server.h"  // dot_frame / dot_unframe

namespace ednsm::client {

DotClient::DotClient(netsim::Network& net, transport::ConnectionPool& pool,
                     QueryOptions options)
    : net_(net), pool_(pool), options_(options) {}

DotClient::DotClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
                     QueryOptions options)
    : net_(net), pool_(pool), target_(std::move(target)), options_(options) {}

void DotClient::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.server, target_.hostname, qname, qtype, std::move(cb));
}

void DotClient::query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
                      dns::RecordType qtype, QueryCallback cb) {
  const netsim::Endpoint remote{server, netsim::kPortDot};
  // At the deadline the session is in an unknown state: drop it.
  auto q = PendingQuery::start(net_, Protocol::DoT, options_.timeout, std::move(cb),
                               [this, remote, sni] { pool_.invalidate(remote, sni); });
  util::Bytes wire = dns::make_query(q->id(), qname, qtype).encode(options_.pad_block);

  pool_.acquire(
      remote, sni, options_.reuse, {},
      [this, q, wire = std::move(wire)](Result<transport::ConnectionPool::Lease> acquired) {
        const transport::ConnectionPool::Lease* l = q->lease(acquired);
        if (l == nullptr) return;
        const netsim::SimTime sent_at = net_.queue().now();
        l->tls->on_data([this, q, sent_at](util::Bytes data) {
          const netsim::SimDuration exchange = net_.queue().now() - sent_at;
          OBS_COMPLETE(net_.queue(), "client", "dot-exchange", sent_at, exchange);
          if (!q->open()) return;
          auto messages = resolver::dot_unframe(data);
          if (!messages) {
            q->answer(Err{messages.error()}, exchange);
            return;
          }
          for (const util::Bytes& msg : messages.value()) {
            auto response = dns::Message::decode(msg);
            if (response && !q->matches(response.value())) {
              continue;  // response to an earlier query on this session
            }
            q->answer(std::move(response), exchange);
            return;
          }
        });
        l->tls->send(resolver::dot_frame(wire));
      });
}

}  // namespace ednsm::client
