#include "client/doq.h"

#include "obs/trace.h"
#include "resolver/server.h"  // dot_frame / dot_unframe (shared with RFC 9250)

namespace ednsm::client {

DoqClient::DoqClient(netsim::Network& net, transport::ConnectionPool& pool,
                     QueryOptions options)
    : net_(net), pool_(pool), options_(options) {}

DoqClient::DoqClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
                     QueryOptions options)
    : net_(net), pool_(pool), target_(std::move(target)), options_(options) {}

void DoqClient::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.server, target_.hostname, qname, qtype, std::move(cb));
}

void DoqClient::query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
                      dns::RecordType qtype, QueryCallback cb) {
  const netsim::Endpoint remote{server, netsim::kPortDoq};
  // At the deadline the connection is in an unknown state: drop it.
  auto q = PendingQuery::start(net_, Protocol::DoQ, options_.timeout, std::move(cb),
                               [this, remote, sni] { pool_.invalidate(remote, sni); });
  util::Bytes framed =
      resolver::dot_frame(dns::make_query(q->id(), qname, qtype).encode(options_.pad_block));
  // Offered as 0-RTT; the pool sends it only when it resumes with a ticket.
  util::Bytes early_data;
  if (options_.offer_early_data) early_data = framed;

  pool_.acquire_quic(
      remote, sni, options_.reuse, std::move(early_data),
      [this, q, framed = std::move(framed)](Result<transport::ConnectionPool::Lease> acquired) {
        const transport::ConnectionPool::Lease* l = q->lease(acquired);
        if (l == nullptr) return;
        // With 0-RTT the query is already at the server on stream 0; if it
        // was rejected, QuicConnection replayed it on stream 0 itself.
        const std::uint64_t expected_stream =
            l->mode == transport::TlsMode::EarlyData ? 0 : l->quic->send_stream(framed);
        // For accepted 0-RTT the exchange clock starts once the connection
        // is ready, like every other protocol's.
        const netsim::SimTime sent_at = net_.queue().now();
        l->quic->on_stream([this, q, expected_stream, sent_at](std::uint64_t stream_id,
                                                               util::Bytes data) {
          if (stream_id != expected_stream) return;  // an earlier query's answer
          if (!q->open()) return;
          auto messages = resolver::dot_unframe(data);
          const netsim::SimDuration exchange = net_.queue().now() - sent_at;
          OBS_COMPLETE(net_.queue(), "client", "doq-exchange", sent_at, exchange);
          if (!messages || messages.value().empty()) {
            q->answer(Err{std::string("doq: bad framing")}, exchange);
            return;
          }
          q->answer(dns::Message::decode(messages.value().front()), exchange);
        });
      });
}

}  // namespace ednsm::client
