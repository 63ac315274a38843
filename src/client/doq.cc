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
  // Handlers installed on the connection outlive the query (the cached
  // session keeps them), so they reach the callback only through `state`,
  // and finish() moves it out. Captured directly, a callback that owns this
  // client would keep itself alive: sessions_ -> connection -> handler ->
  // callback -> client.
  struct State {
    std::unique_ptr<SingleFire> guard;
    QueryCallback cb;
    netsim::SimTime started{0};
    std::uint16_t id = 0;
    bool connected = false;
  };
  auto state = std::make_shared<State>();
  state->cb = std::move(cb);
  state->started = net_.queue().now();
  state->id = static_cast<std::uint16_t>(net_.rng().next_u64() & 0xffff);

  const netsim::Endpoint remote{server, netsim::kPortDoq};
  const Key key{remote, sni};

  auto finish = [this, state](QueryOutcome outcome) {
    outcome.protocol = Protocol::DoQ;
    outcome.timing.total = net_.queue().now() - state->started;
    state->guard.reset();
    const QueryCallback done = std::move(state->cb);
    done(std::move(outcome));
  };

  state->guard = std::make_unique<SingleFire>(
      net_.queue(), options_.timeout, [this, state, key, finish] {
        sessions_.erase(key);
        QueryOutcome timeout;
        timeout.error = state->connected
                            ? QueryError{QueryErrorClass::Timeout, "doq: no response"}
                            : QueryError{QueryErrorClass::ConnectTimeout,
                                         "doq: could not establish connection"};
        finish(std::move(timeout));
      });

  const dns::Message query_msg = dns::make_query(state->id, qname, qtype);
  const util::Bytes framed = resolver::dot_frame(query_msg.encode(options_.pad_block));

  // Response handler shared by every path; matches on stream id. `sent_at`
  // is when the query stream was handed to the transport (for accepted 0-RTT
  // the stream rode the handshake flight, so the exchange clock starts once
  // the connection is ready).
  auto install_handler = [this, state, finish](transport::QuicConnection& conn,
                                               std::uint64_t expected_stream, QueryTiming timing,
                                               netsim::SimTime sent_at) {
    conn.on_stream([this, state, expected_stream, timing, sent_at,
                    finish](std::uint64_t stream_id, util::Bytes data) {
      if (stream_id != expected_stream) return;  // an earlier query's answer
      if (!state->guard || state->guard->fired()) return;
      auto messages = resolver::dot_unframe(data);
      QueryOutcome outcome;
      outcome.timing = timing;
      outcome.timing.exchange = net_.queue().now() - sent_at;
      OBS_COMPLETE(net_.queue(), "client", "doq-exchange", sent_at,
                   outcome.timing.exchange);
      if (!messages || messages.value().empty()) {
        if (!state->guard->fire()) return;
        outcome.error = QueryError{QueryErrorClass::Malformed, "doq: bad framing"};
        finish(std::move(outcome));
        return;
      }
      auto response = dns::Message::decode(messages.value().front());
      if (!state->guard->fire()) return;
      if (!response) {
        outcome.error = QueryError{QueryErrorClass::Malformed, response.error()};
      } else {
        outcome.ok = true;
        outcome.rcode = response.value().header.rcode;
        outcome.answers = std::move(response.value().answers);
      }
      finish(std::move(outcome));
    });
  };

  // Re-use a live session when the policy allows.
  if (options_.reuse != transport::ReusePolicy::None) {
    const auto it = sessions_.find(key);
    if (it != sessions_.end() && it->second->established()) {
      state->connected = true;
      auto& conn = *it->second;
      QueryTiming timing;
      timing.connection_reused = true;
      const std::uint64_t sid = conn.send_stream(framed);
      install_handler(conn, sid, timing, net_.queue().now());
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
      [this, state, key, mode, framed, weak, install_handler,
       finish](Result<transport::QuicHandshakeInfo> hs) {
        if (state->guard == nullptr || state->guard->fired()) return;
        auto live = weak.lock();
        if (!hs || !live) {
          if (!state->guard->fire()) return;
          sessions_.erase(key);
          QueryOutcome fail;
          const std::string detail = hs ? "doq: connection lost" : hs.error();
          fail.error = QueryError{classify_transport_error(detail), detail};
          fail.timing.connect = net_.queue().now() - state->started;
          finish(std::move(fail));
          return;
        }
        state->connected = true;
        if (hs.value().ticket.has_value()) tickets_[key] = *hs.value().ticket;

        QueryTiming timing;
        timing.connect = net_.queue().now() - state->started;
        timing.connection_reused = false;
        timing.tls_mode = mode;
        // QUIC folds transport + crypto setup into one phase.
        timing.quic_handshake = live->handshake_duration();

        // With accepted 0-RTT the query is already at the server on stream 0;
        // if it was rejected, QuicConnection replayed it on stream 0 itself.
        const std::uint64_t sid = (mode == transport::TlsMode::EarlyData)
                                      ? 0
                                      : live->send_stream(framed);
        install_handler(*live, sid, timing, net_.queue().now());
      });
}

}  // namespace ednsm::client
