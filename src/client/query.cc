#include "client/query.h"

#include "util/strings.h"

namespace ednsm::client {

namespace {

// What a deadline reports, per protocol: with the connection up, and
// without one. Do53 has no connection to wait for and is connected from
// the start.
struct DeadlineDetails {
  const char* no_response;
  const char* no_connection;
};

DeadlineDetails deadline_details(Protocol p) noexcept {
  switch (p) {
    case Protocol::Do53: return {"do53: no response", "do53: no response"};
    case Protocol::DoT: return {"dot: no response", "dot: could not establish connection"};
    case Protocol::DoH: return {"doh: no response", "doh: could not establish connection"};
    case Protocol::DoQ: return {"doq: no response", "doq: could not establish connection"};
    case Protocol::ODoH: return {"odoh: no response", "odoh: could not reach relay"};
  }
  return {"?", "?"};
}

}  // namespace

std::string_view to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::Do53: return "Do53";
    case Protocol::DoT: return "DoT";
    case Protocol::DoH: return "DoH";
    case Protocol::DoQ: return "DoQ";
    case Protocol::ODoH: return "ODoH";
  }
  return "?";
}

std::optional<Protocol> protocol_from_string(std::string_view name) noexcept {
  for (Protocol p : {Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ,
                     Protocol::ODoH}) {
    if (name == to_string(p)) return p;
  }
  return std::nullopt;
}

std::string_view to_string(QueryErrorClass c) noexcept {
  switch (c) {
    case QueryErrorClass::ConnectRefused: return "connect-refused";
    case QueryErrorClass::ConnectTimeout: return "connect-timeout";
    case QueryErrorClass::TlsFailure: return "tls-failure";
    case QueryErrorClass::HttpError: return "http-error";
    case QueryErrorClass::Timeout: return "timeout";
    case QueryErrorClass::Malformed: return "malformed";
  }
  return "?";
}

SingleFire::SingleFire(netsim::EventQueue& queue, netsim::SimDuration timeout,
                       std::function<void()> on_timeout)
    : queue_(queue) {
  timer_ = queue_.schedule(timeout, [this, cb = std::move(on_timeout)] {
    timer_.reset();
    if (!fired_) {
      fired_ = true;
      cb();
    }
  });
}

SingleFire::~SingleFire() {
  if (timer_.has_value()) queue_.cancel(*timer_);
}

bool SingleFire::fire() {
  if (fired_) return false;
  fired_ = true;
  if (timer_.has_value()) {
    queue_.cancel(*timer_);
    timer_.reset();
  }
  return true;
}

QueryErrorClass classify_transport_error(std::string_view detail) noexcept {
  if (detail.find("refused") != std::string_view::npos) return QueryErrorClass::ConnectRefused;
  if (detail.find("SYN") != std::string_view::npos ||
      detail.find("timed out") != std::string_view::npos) {
    return QueryErrorClass::ConnectTimeout;
  }
  if (detail.find("tls") != std::string_view::npos) return QueryErrorClass::TlsFailure;
  return QueryErrorClass::Timeout;
}

PendingQuery::PendingQuery(netsim::Network& net, Protocol protocol, QueryCallback cb)
    : queue_(net.queue()),
      protocol_(protocol),
      callback_(std::move(cb)),
      started_(net.queue().now()),
      id_(static_cast<std::uint16_t>(net.rng().next_u64() & 0xffff)) {}

const transport::ConnectionPool::Lease* PendingQuery::lease(
    const Result<transport::ConnectionPool::Lease>& acquired) {
  if (!acquired) {
    if (claim()) {  // unless the deadline came first
      QueryOutcome fail;
      fail.error = QueryError{classify_transport_error(acquired.error()), acquired.error()};
      fail.timing.connect = queue_.now() - started_;
      deliver(std::move(fail));
    }
    return nullptr;
  }
  if (!open()) return nullptr;  // the deadline came first
  const transport::ConnectionPool::Lease& l = acquired.value();
  connected = true;
  timing.connect = l.fresh ? queue_.now() - started_ : netsim::kZeroDuration;
  timing.connection_reused = !l.fresh;
  timing.tls_mode = l.mode;
  timing.tcp_handshake = l.tcp_handshake;
  timing.tls_handshake = l.tls_handshake;
  timing.quic_handshake = l.quic_handshake;
  timing.wait_in_pool = l.wait_in_pool;
  return &l;
}

QueryOutcome PendingQuery::response_outcome(netsim::SimDuration exchange,
                                            int http_status) const {
  QueryOutcome outcome;
  outcome.timing = timing;
  outcome.timing.exchange = exchange;
  outcome.http_status = http_status;
  return outcome;
}

void PendingQuery::answer(Result<dns::Message> message, netsim::SimDuration exchange,
                          int http_status) {
  if (!claim()) return;
  QueryOutcome outcome = response_outcome(exchange, http_status);
  if (!message) {
    outcome.error = QueryError{QueryErrorClass::Malformed, std::move(message.error())};
  } else {
    outcome.ok = true;
    outcome.rcode = message.value().header.rcode;
    outcome.answers = std::move(message.value().answers);
  }
  deliver(std::move(outcome));
}

void PendingQuery::answer_http(Result<http::Response> response, netsim::SimDuration exchange,
                               BodyDecoder decode_body) {
  if (!open()) return;
  if (!response) {
    answer(Err{std::move(response.error())}, exchange);
    return;
  }
  const int status = response.value().status;
  if (status != 200) {
    if (!claim()) return;
    QueryOutcome outcome = response_outcome(exchange, status);
    const std::string_view tag = protocol_ == Protocol::ODoH ? "odoh: HTTP " : "doh: HTTP ";
    outcome.error = QueryError{QueryErrorClass::HttpError,
                               std::string(tag) + std::to_string(status)};
    deliver(std::move(outcome));
    return;
  }
  answer(decode_body(response.value().body, id_), exchange, status);
}

QueryOutcome PendingQuery::deadline_outcome() const {
  // Nothing heard on an established connection is a timeout. No connection
  // by the deadline is a connection-establishment failure, like dig's
  // "connection timed out": the paper's dominant error class.
  const DeadlineDetails details = deadline_details(protocol_);
  QueryOutcome timeout;
  timeout.error = connected ? QueryError{QueryErrorClass::Timeout, details.no_response}
                            : QueryError{QueryErrorClass::ConnectTimeout, details.no_connection};
  return timeout;
}

void PendingQuery::deliver(QueryOutcome outcome) {
  outcome.protocol = protocol_;
  outcome.timing.total = queue_.now() - started_;
  const QueryCallback done = std::move(callback_);
  done(std::move(outcome));
}

}  // namespace ednsm::client
