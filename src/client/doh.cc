#include "client/doh.h"

#include <memory>

#include "http/doh_media.h"
#include "http/h2.h"
#include "obs/trace.h"

namespace ednsm::client {

DohClient::DohClient(netsim::Network& net, transport::ConnectionPool& pool,
                     QueryOptions options)
    : net_(net), pool_(pool), options_(options) {}

DohClient::DohClient(netsim::Network& net, transport::ConnectionPool& pool, SessionTarget target,
                     QueryOptions options)
    : net_(net), pool_(pool), target_(std::move(target)), options_(options) {}

namespace {
// A DoH response body is the DNS message itself.
Result<dns::Message> dns_body(const util::Bytes& body, std::uint16_t /*id*/) {
  return dns::Message::decode(body);
}
}  // namespace

void DohClient::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.server, target_.hostname, qname, qtype, std::move(cb));
}

void DohClient::query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
                      dns::RecordType qtype, QueryCallback cb) {
  const netsim::Endpoint remote{server, netsim::kPortHttps};
  auto q = PendingQuery::start(net_, Protocol::DoH, options_.timeout, std::move(cb),
                               [this, remote, sni] { pool_.invalidate(remote, sni); });
  const util::Bytes dns_wire =
      dns::make_query(q->id(), qname, qtype).encode(options_.pad_block);
  http::Request request =
      http::make_doh_request(sni, http::kDohDefaultPath, dns_wire, options_.use_post);

  // With 0-RTT the serialized request must be ready before the handshake.
  // We only offer early data for HTTP/1.1 requests (an H2 first flight would
  // need the preface inside early data; real deployments do this, but the
  // session bookkeeping would be identical, so we keep 0-RTT on the simpler
  // codec).
  util::Bytes early_data;
  const bool early_eligible = options_.offer_early_data && !options_.use_http2 &&
                              options_.reuse == transport::ReusePolicy::TicketResumption &&
                              pool_.has_ticket(remote, sni);
  if (early_eligible) early_data = request.encode();

  pool_.acquire(
      remote, sni, options_.reuse, std::move(early_data),
      [this, q, request = std::move(request)](Result<transport::ConnectionPool::Lease> acquired) {
        const transport::ConnectionPool::Lease* l = q->lease(acquired);
        if (l == nullptr) return;

        if (!options_.use_http2) {
          const netsim::SimTime sent_at = net_.queue().now();
          l->tls->on_data([this, q, sent_at](util::Bytes data) {
            const netsim::SimDuration exchange = net_.queue().now() - sent_at;
            OBS_COMPLETE(net_.queue(), "http", "h1-exchange", sent_at, exchange);
            q->answer_http(http::Response::decode(data), exchange, dns_body);
          });
          if (!l->early_data_accepted) l->tls->send(request.encode());
          return;
        }

        // HTTP/2 path. Stream ids and HPACK tables are per-connection, so the
        // session state lives in the pooled connection's protocol slot: a
        // later probe that re-uses the connection continues its streams
        // instead of re-sending the preface into a live server session.
        std::shared_ptr<void>& slot = *l->protocol_state;
        if (slot == nullptr) slot = std::make_shared<http::H2ClientSession>();
        std::shared_ptr<http::H2ClientSession> h2 =
            std::static_pointer_cast<http::H2ClientSession>(slot);

        std::uint32_t stream_id = 0;
        const util::Bytes frames = h2->serialize_request(request, stream_id);
        h2->stamp_request(stream_id, net_.queue().now());

        l->tls->on_data([this, q, h2, stream_id](util::Bytes data) {
          h2->feed(data, [&](std::uint32_t sid, Result<http::Response> resp) {
            if (sid != stream_id) return;  // a stale stream's frames
            const netsim::SimDuration exchange = h2->finish_exchange(sid, net_.queue().now());
            OBS_COMPLETE(net_.queue(), "http", "h2-exchange", net_.queue().now() - exchange,
                         exchange);
            q->answer_http(std::move(resp), exchange, dns_body);
          });
        });
        l->tls->send(frames);
      });
}

}  // namespace ednsm::client
