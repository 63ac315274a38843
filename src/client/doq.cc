#include "client/doq.h"

#include "obs/trace.h"
#include "resolver/server.h"  // dot_frame / dot_unframe (shared with RFC 9250)

namespace ednsm::client {

DoqClient::DoqClient(netsim::Network& net, netsim::IpAddr local_ip, QueryOptions options)
    : net_(net), local_ip_(local_ip), options_(options) {}

DoqClient::DoqClient(netsim::Network& net, netsim::IpAddr local_ip, SessionTarget target,
                     QueryOptions options)
    : net_(net), local_ip_(local_ip), target_(std::move(target)), options_(options) {}

void DoqClient::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.server, target_.hostname, qname, qtype, std::move(cb));
}

void DoqClient::invalidate(const netsim::Endpoint& remote, const std::string& sni) {
  sessions_.erase({remote, sni});
}

void DoqClient::query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
                      dns::RecordType qtype, QueryCallback cb) {
  const netsim::Endpoint remote{server, netsim::kPortDoq};
  const Key key{remote, sni};
  auto q = PendingQuery::start(net_, Protocol::DoQ, options_.timeout, std::move(cb),
                               [this, key] { sessions_.erase(key); });
  const util::Bytes framed =
      resolver::dot_frame(dns::make_query(q->id(), qname, qtype).encode(options_.pad_block));

  // Response handler shared by every path; matches on stream id. `sent_at`
  // is when the query stream was handed to the transport (for accepted 0-RTT
  // the stream rode the handshake flight, so the exchange clock starts once
  // the connection is ready).
  auto install_handler = [this, q](transport::QuicConnection& conn,
                                   std::uint64_t expected_stream, netsim::SimTime sent_at) {
    conn.on_stream([this, q, expected_stream, sent_at](std::uint64_t stream_id,
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
  };

  // Re-use a live session when the policy allows.
  if (options_.reuse != transport::ReusePolicy::None) {
    const auto it = sessions_.find(key);
    if (it != sessions_.end() && it->second->established()) {
      q->connected = true;
      q->timing.connection_reused = true;
      auto& conn = *it->second;
      const std::uint64_t sid = conn.send_stream(framed);
      install_handler(conn, sid, net_.queue().now());
      return;
    }
  } else {
    sessions_.erase(key);
  }

  // Fresh connection.
  auto conn = std::make_shared<transport::QuicConnection>(
      net_, netsim::Endpoint{local_ip_, net_.ephemeral_port(local_ip_)}, remote, sni,
      next_conn_id_++);
  sessions_[key] = conn;

  std::optional<transport::SessionTicket> ticket;
  transport::TlsMode mode = transport::TlsMode::Full;
  util::Bytes early;
  if (options_.reuse == transport::ReusePolicy::TicketResumption) {
    const auto tk = tickets_.find(key);
    if (tk != tickets_.end()) {
      ticket = tk->second;
      mode = options_.offer_early_data ? transport::TlsMode::EarlyData
                                       : transport::TlsMode::Resume;
      if (mode == transport::TlsMode::EarlyData) early = framed;
    }
  }

  std::weak_ptr<transport::QuicConnection> weak = conn;
  conn->connect(
      mode, ticket, std::move(early),
      [this, q, key, mode, framed, weak,
       install_handler](Result<transport::QuicHandshakeInfo> hs) {
        if (!q->open()) return;
        auto live = weak.lock();
        if (!hs || !live) {
          sessions_.erase(key);
          q->fail_connect(hs ? std::string("doq: connection lost") : hs.error());
          return;
        }
        q->connected = true;
        if (hs.value().ticket.has_value()) tickets_[key] = *hs.value().ticket;

        q->timing.connect = net_.queue().now() - q->started();
        q->timing.tls_mode = mode;
        // QUIC folds transport + crypto setup into one phase.
        q->timing.quic_handshake = live->handshake_duration();

        // With accepted 0-RTT the query is already at the server on stream 0;
        // if it was rejected, QuicConnection replayed it on stream 0 itself.
        const std::uint64_t sid = (mode == transport::TlsMode::EarlyData)
                                      ? 0
                                      : live->send_stream(framed);
        install_handler(*live, sid, net_.queue().now());
      });
}

}  // namespace ednsm::client
