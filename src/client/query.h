// Shared types for the five protocol clients (Do53 / DoT / DoH / DoQ /
// ODoH): options, timing breakdown, error taxonomy, the query outcome
// delivered to the measurement layer, and the one query lifecycle every
// client runs (PendingQuery).
//
// The error taxonomy mirrors what the paper's tool distinguishes: "the most
// common errors we received ... were related to a failure to establish a
// connection" — so connection-establishment failures are separated from
// in-band failures (TLS, HTTP status, DNS RCODE) and plain timeouts.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.h"
#include "http/h1.h"
#include "netsim/network.h"
#include "netsim/time.h"
#include "transport/pool.h"

namespace ednsm::client {

enum class Protocol { Do53, DoT, DoH, DoQ, ODoH };

[[nodiscard]] std::string_view to_string(Protocol p) noexcept;

// Inverse of to_string (exact match); nullopt for unknown names. The single
// string->Protocol conversion shared by spec parsing and the CLI tools.
[[nodiscard]] std::optional<Protocol> protocol_from_string(std::string_view name) noexcept;

enum class QueryErrorClass {
  ConnectRefused,   // TCP RST during handshake
  ConnectTimeout,   // SYN retries exhausted
  TlsFailure,       // handshake alert / certificate mismatch
  HttpError,        // DoH: non-200 status
  Timeout,          // no response within the deadline
  Malformed,        // response failed to decode
};

[[nodiscard]] std::string_view to_string(QueryErrorClass c) noexcept;

struct QueryError {
  QueryErrorClass error_class = QueryErrorClass::Timeout;
  std::string detail;
};

struct QueryTiming {
  // ednsm-lint: allow(phase-sum) — aggregate: the bound the phases sum under
  netsim::SimDuration total{0};    // request issued -> outcome known
  // ednsm-lint: allow(phase-sum) — aggregate: tcp_handshake + tls_handshake
  netsim::SimDuration connect{0};  // TCP + TLS establishment (zero when reused)
  // Fine-grained phase breakdown, stamped by the transports and threaded
  // through the pool lease. All handshake phases are zero when the connection
  // is reused; `wait_in_pool` is acquire time not attributable to a handshake
  // (queueing/scheduling inside the pool).
  netsim::SimDuration tcp_handshake{0};
  netsim::SimDuration tls_handshake{0};
  netsim::SimDuration quic_handshake{0};
  netsim::SimDuration wait_in_pool{0};
  // Request -> response exchange on the established connection, stamped by
  // http/h1 and http/h2 for the HTTPS protocols and by the client for the
  // framed ones. When accepted 0-RTT carries the request inside the
  // handshake flight, the exchange clock starts once the connection is
  // ready, so the phase sum never double-counts the overlapped round trip.
  netsim::SimDuration exchange{0};
  bool connection_reused = false;
  transport::TlsMode tls_mode = transport::TlsMode::Full;

  // Sum of all stamped phases; invariant: phase_sum() <= total.
  // ednsm-lint: allow(hygiene-dead-function) — SessionTiming.ColdPhasesDecomposeTotal checks
  // phase_sum() <= total; the phase-sum rule also requires it here.
  [[nodiscard]] netsim::SimDuration phase_sum() const noexcept {
    return tcp_handshake + tls_handshake + quic_handshake + wait_in_pool + exchange;
  }
};

struct QueryOutcome {
  Protocol protocol = Protocol::DoH;
  bool ok = false;                       // got a well-formed DNS response
  dns::Rcode rcode = dns::Rcode::NoError;
  std::vector<dns::ResourceRecord> answers;
  std::optional<QueryError> error;       // set when !ok
  QueryTiming timing;
  int http_status = 0;                   // DoH and ODoH; 0 when no HTTP response decoded
};

using QueryCallback = std::function<void(QueryOutcome)>;

struct QueryOptions {
  netsim::SimDuration timeout = std::chrono::seconds(5);
  transport::ReusePolicy reuse = transport::ReusePolicy::None;
  // DoH shape:
  bool use_post = false;       // RFC 8484 GET by default
  bool use_http2 = true;       // false -> HTTP/1.1
  bool offer_early_data = false;  // 0-RTT with TicketResumption
  // EDNS padding block for queries (RFC 8467 recommends 128; 0 disables).
  std::size_t pad_block = 128;
};

// Shared single-fire guard: wraps a callback + deadline so exactly one of
// {response, error, timeout} reaches the caller.
class SingleFire {
 public:
  SingleFire(netsim::EventQueue& queue, netsim::SimDuration timeout,
             std::function<void()> on_timeout);
  ~SingleFire();
  // The armed timer holds this object's address.
  SingleFire(const SingleFire&) = delete;
  SingleFire& operator=(const SingleFire&) = delete;

  // Returns true the first time, false afterwards (and cancels the timer).
  [[nodiscard]] bool fire();
  [[nodiscard]] bool fired() const noexcept { return fired_; }

 private:
  netsim::EventQueue& queue_;
  std::optional<netsim::EventQueue::EventId> timer_;
  bool fired_ = false;
};

// Classify a transport error string from the pool/TCP layer.
[[nodiscard]] QueryErrorClass classify_transport_error(std::string_view detail) noexcept;

// One query from issue to delivery: what every protocol client keeps while
// its wire exchange runs. Clients share it through a shared_ptr with the
// handlers they install; delivery moves the caller's callback out, so a
// handler that outlives the answer (one installed on a pooled connection)
// keeps the query but never the callback. Exactly one outcome reaches the
// callback: a response, a connection failure, or the deadline.
class PendingQuery {
 public:
  // Stamps the start time, draws the DNS id from the network RNG and arms
  // the deadline. At the deadline `on_deadline` runs first (the client
  // drops its connection state there), then the deadline outcome is
  // delivered. The timer holds a reference to the query, so a query whose
  // connection is torn down under it still times out.
  template <typename OnDeadline>
  [[nodiscard]] static std::shared_ptr<PendingQuery> start(netsim::Network& net,
                                                           Protocol protocol,
                                                           netsim::SimDuration timeout,
                                                           QueryCallback cb,
                                                           OnDeadline on_deadline);

  // Use start(); public only for std::make_shared.
  PendingQuery(netsim::Network& net, Protocol protocol, QueryCallback cb);

  [[nodiscard]] std::uint16_t id() const noexcept { return id_; }
  [[nodiscard]] netsim::SimTime started() const noexcept { return started_; }
  // False once the query is settled: answered, failed or timed out.
  [[nodiscard]] bool open() const noexcept { return !guard_->fired(); }
  // True when `m` is the response to this query (its id, with QR set).
  [[nodiscard]] bool matches(const dns::Message& m) const noexcept {
    return m.header.id == id_ && m.header.qr;
  }

  // Set once the connection is up: the deadline then reports a timeout,
  // before that a connect-timeout.
  bool connected = false;
  // The connection's phases, which every response outcome carries.
  QueryTiming timing;

  // Takes a pool acquire's result (DoT, DoH, DoQ, ODoH). A lease marks the
  // query connected and stamps its phases into `timing`; a failed acquire
  // is delivered as a connection failure, classified from the transport's
  // error. Returns the lease to send on, or null when the query is settled.
  [[nodiscard]] const transport::ConnectionPool::Lease* lease(
      const Result<transport::ConnectionPool::Lease>& acquired);

  // Delivers a DNS response that took `exchange` on the connection: ok with
  // its rcode and answers, or malformed with the decoder's error.
  // `http_status` is that of the HTTP response that carried it, if any.
  void answer(Result<dns::Message> message, netsim::SimDuration exchange, int http_status = 0);

  // The DNS message a 200 response's body carries, given the query's id.
  using BodyDecoder = Result<dns::Message> (*)(const util::Bytes& body, std::uint16_t id);

  // Delivers an HTTP response carrying a DNS message (DoH, ODoH): malformed
  // when it did not decode, an HTTP error on any status but 200, else the
  // answer `decode_body` finds in its body.
  void answer_http(Result<http::Response> response, netsim::SimDuration exchange,
                   BodyDecoder decode_body);

 private:
  [[nodiscard]] bool claim() { return guard_->fire(); }
  // An outcome on the response path: the connection's phases plus the exchange.
  [[nodiscard]] QueryOutcome response_outcome(netsim::SimDuration exchange, int http_status) const;
  [[nodiscard]] QueryOutcome deadline_outcome() const;
  void deliver(QueryOutcome outcome);

  netsim::EventQueue& queue_;
  Protocol protocol_;
  QueryCallback callback_;
  netsim::SimTime started_;
  std::uint16_t id_;
  std::optional<SingleFire> guard_;
};

template <typename OnDeadline>
std::shared_ptr<PendingQuery> PendingQuery::start(netsim::Network& net, Protocol protocol,
                                                  netsim::SimDuration timeout, QueryCallback cb,
                                                  OnDeadline on_deadline) {
  auto q = std::make_shared<PendingQuery>(net, protocol, std::move(cb));
  q->guard_.emplace(net.queue(), timeout, [q, on_deadline = std::move(on_deadline)] {
    on_deadline();
    q->deliver(q->deadline_outcome());
  });
  return q;
}

}  // namespace ednsm::client
