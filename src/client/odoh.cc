#include "client/odoh.h"

#include "resolver/odoh.h"

namespace ednsm::client {

OdohClient::OdohClient(netsim::Network& net, transport::ConnectionPool& pool,
                       SessionTarget target, QueryOptions options)
    : net_(net), pool_(pool), target_(std::move(target)), options_(options) {}

namespace {
// An ODoH response body is the target's answer, sealed for the client.
Result<dns::Message> unseal_body(const util::Bytes& body, std::uint16_t id) {
  auto sealed = resolver::ObliviousMessage::decode(body);
  if (!sealed) return Err{sealed.error()};
  auto message = dns::Message::decode(sealed.value().payload);
  if (message && message.value().header.id != id) return Err{std::string("odoh: id mismatch")};
  return message;
}
}  // namespace

void OdohClient::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.relay, target_.relay_sni, target_.hostname, qname, qtype, std::move(cb));
}

void OdohClient::query(netsim::IpAddr relay, const std::string& relay_sni,
                       const std::string& target_hostname, const dns::Name& qname,
                       dns::RecordType qtype, QueryCallback cb) {
  const netsim::Endpoint remote{relay, netsim::kPortHttps};
  auto q = PendingQuery::start(net_, Protocol::ODoH, options_.timeout, std::move(cb),
                               [this, remote, relay_sni] { pool_.invalidate(remote, relay_sni); });

  // Seal the query for the target and wrap it for the relay.
  resolver::ObliviousMessage sealed;
  sealed.target_hostname = target_hostname;
  sealed.payload = dns::make_query(q->id(), qname, qtype).encode(options_.pad_block);

  http::Request request;
  request.method = "POST";
  request.path = std::string(http::kDohDefaultPath);
  request.authority = relay_sni;
  request.headers.emplace_back("content-type", std::string(resolver::kObliviousMediaType));
  request.headers.emplace_back("accept", std::string(resolver::kObliviousMediaType));
  request.body = sealed.encode();

  pool_.acquire(
      remote, relay_sni, options_.reuse, {},
      [this, q, request = std::move(request)](Result<transport::ConnectionPool::Lease> acquired) {
        const transport::ConnectionPool::Lease* l = q->lease(acquired);
        if (l == nullptr) return;
        const netsim::SimTime sent_at = net_.queue().now();
        l->tls->on_data([this, q, sent_at](util::Bytes data) {
          if (!q->open()) return;
          q->answer_http(http::Response::decode(data), net_.queue().now() - sent_at,
                         unseal_body);
        });
        l->tls->send(request.encode());
      });
}

}  // namespace ednsm::client
