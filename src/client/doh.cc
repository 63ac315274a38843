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

void DohClient::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.server, target_.hostname, qname, qtype, std::move(cb));
}

void DohClient::query(netsim::IpAddr server, const std::string& sni, const dns::Name& qname,
                      dns::RecordType qtype, QueryCallback cb) {
  struct State {
    std::unique_ptr<SingleFire> guard;
    netsim::SimTime started{0};
    std::uint16_t id = 0;
    bool connected = false;  // lease acquired; deadline hits are then "timeout"
  };
  auto state = std::make_shared<State>();
  state->started = net_.queue().now();
  state->id = static_cast<std::uint16_t>(net_.rng().next_u64() & 0xffff);

  const netsim::Endpoint remote{server, netsim::kPortHttps};

  auto finish = [this, state, cb](QueryOutcome outcome) {
    outcome.protocol = Protocol::DoH;
    outcome.timing.total = net_.queue().now() - state->started;
    state->guard.reset();
    cb(std::move(outcome));
  };

  state->guard = std::make_unique<SingleFire>(
      net_.queue(), options_.timeout, [this, state, remote, sni, finish] {
        pool_.invalidate(remote, sni);
        QueryOutcome timeout;
        // A deadline that fires before the connection was ever established is
        // a connection-establishment failure, like dig's "connection timed
        // out" — the paper's dominant error class.
        timeout.error = state->connected
                            ? QueryError{QueryErrorClass::Timeout, "doh: no response"}
                            : QueryError{QueryErrorClass::ConnectTimeout,
                                         "doh: could not establish connection"};
        finish(std::move(timeout));
      });

  const dns::Message query_msg = dns::make_query(state->id, qname, qtype);
  const util::Bytes dns_wire = query_msg.encode(options_.pad_block);
  const http::Request request =
      http::make_doh_request(sni, http::kDohDefaultPath, dns_wire, options_.use_post);

  // Completion shared by the H1 and H2 paths.
  auto complete = [state, finish](QueryTiming timing, Result<http::Response> response) {
    if (!state->guard || !state->guard->fire()) return;
    QueryOutcome outcome;
    outcome.timing = timing;
    if (!response) {
      outcome.error = QueryError{QueryErrorClass::Malformed, response.error()};
      finish(std::move(outcome));
      return;
    }
    const http::Response& resp = response.value();
    outcome.http_status = resp.status;
    if (resp.status != 200) {
      outcome.error = QueryError{QueryErrorClass::HttpError,
                                 "doh: HTTP " + std::to_string(resp.status)};
      finish(std::move(outcome));
      return;
    }
    auto message = dns::Message::decode(resp.body);
    if (!message) {
      outcome.error = QueryError{QueryErrorClass::Malformed, message.error()};
      finish(std::move(outcome));
      return;
    }
    outcome.ok = true;
    outcome.rcode = message.value().header.rcode;
    outcome.answers = std::move(message.value().answers);
    finish(std::move(outcome));
  };

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
      [this, state, request, complete, finish](Result<transport::ConnectionPool::Lease> lease) {
        if (state->guard == nullptr || state->guard->fired()) return;
        if (!lease) {
          if (!state->guard->fire()) return;
          QueryOutcome fail;
          fail.error = QueryError{classify_transport_error(lease.error()), lease.error()};
          fail.timing.connect = net_.queue().now() - state->started;
          finish(std::move(fail));
          return;
        }
        const auto& l = lease.value();
        state->connected = true;
        QueryTiming timing;
        timing.connect = l.fresh ? net_.queue().now() - state->started
                                 : netsim::kZeroDuration;
        timing.connection_reused = !l.fresh;
        timing.tls_mode = l.mode;
        timing.tcp_handshake = l.tcp_handshake;
        timing.tls_handshake = l.tls_handshake;
        timing.wait_in_pool = l.wait_in_pool;

        if (!options_.use_http2) {
          http::ExchangeTiming ex;
          ex.request_sent = net_.queue().now();
          l.tls->on_data([this, ex, timing, complete](util::Bytes data) mutable {
            ex.response_received = net_.queue().now();
            QueryTiming t = timing;
            t.exchange = ex.elapsed();
            OBS_COMPLETE(net_.queue(), "http", "h1-exchange", ex.request_sent, t.exchange);
            complete(t, http::Response::decode(data));
          });
          if (!l.early_data_accepted) l.tls->send(request.encode());
          return;
        }

        // HTTP/2 path. Stream ids and HPACK tables are per-connection, so the
        // session state lives in the pooled connection's protocol slot: a
        // later probe that re-uses the connection continues its streams
        // instead of re-sending the preface into a live server session.
        std::shared_ptr<void>& slot = *l.protocol_state;
        if (slot == nullptr) slot = std::make_shared<http::H2ClientSession>();
        std::shared_ptr<http::H2ClientSession> h2 =
            std::static_pointer_cast<http::H2ClientSession>(slot);

        std::uint32_t stream_id = 0;
        const util::Bytes frames = h2->serialize_request(request, stream_id);
        h2->stamp_request(stream_id, net_.queue().now());

        l.tls->on_data([this, h2, stream_id, timing, complete](util::Bytes data) {
          h2->feed(data, [&](std::uint32_t sid, Result<http::Response> resp) {
            if (sid != stream_id) return;  // a stale stream's frames
            QueryTiming t = timing;
            t.exchange = h2->finish_exchange(sid, net_.queue().now());
            OBS_COMPLETE(net_.queue(), "http", "h2-exchange",
                         net_.queue().now() - t.exchange, t.exchange);
            complete(t, std::move(resp));
          });
        });
        l.tls->send(frames);
      });
}

}  // namespace ednsm::client
