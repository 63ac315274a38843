// ResolverServer: one simulated encrypted-DNS resolver site.
//
// Each site is a netsim host serving three protocol endpoints:
//   UDP 53   Do53 (plain DNS)
//   TCP 853  DoT  (RFC 7858: 2-byte length-prefixed DNS over TLS)
//   TCP 443  DoH  (RFC 8484: HTTP/1.1 or HTTP/2 over TLS, GET and POST)
// All three feed one query engine: decode -> cache lookup -> (hit: processing
// delay | miss: recursion model, answer synthesis, cache fill) -> encode.
//
// Failure injection knobs model the error taxonomy the paper observed —
// "the most common errors ... were related to a failure to establish a
// connection" — as well as TLS failures, HTTP 5xx, and SERVFAIL.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "dns/message.h"
#include "http/doh_media.h"
#include "http/h2.h"
#include "netsim/network.h"
#include "resolver/anycast.h"
#include "resolver/cache.h"
#include "resolver/upstream.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "transport/tls.h"
#include "transport/udp.h"

namespace ednsm::resolver {

struct ServerBehavior {
  // Per-query processing time on a cache hit (lognormal, ln-ms). Mainstream
  // deployments run hot caches on fast hardware; small resolvers are slower
  // and more variable.
  double processing_mu = -1.0;   // e^-1 ~ 0.37 ms median
  double processing_sigma = 0.4;
  // Occasional load spikes (GC pauses, rate limiting, oversubscribed VMs).
  double load_spike_probability = 0.0;
  double load_spike_scale_ms = 10.0;
  double load_spike_alpha = 1.8;

  UpstreamModel upstream;

  // Probability that a *local-cache miss* for a popular domain is still
  // answerable without full recursion because other users of this resolver
  // keep the entry warm (we only simulate our own probes; real resolvers
  // serve many clients). Scales with user-base size: hyperscalers nearly
  // always have google.com in cache, one-operator resolvers often don't.
  double warm_cache_probability = 0.8;

  // Deterministic additive response delay. Used for Oblivious DoH targets:
  // the ODoH relay hop sits on the DNS path but not on the ICMP path, so it
  // belongs to the server response, not the network path.
  double extra_response_ms = 0.0;

  // Failure injection.
  double connect_drop_probability = 0.0;  // SYN silently dropped
  double connect_refuse_probability = 0.0;  // RST
  double tls_failure_probability = 0.0;
  double http_error_probability = 0.0;    // DoH responds 5xx

  bool supports_do53 = true;
  bool supports_dot = true;
  bool supports_doh = true;
  bool supports_doq = true;  // RFC 9250 (simulated deployment: everywhere)

  // Hard outage: listeners drop every connection attempt and the query
  // engine goes silent (campaigns observe pure connect-timeouts). Toggled
  // mid-simulation through set_behavior for longitudinal studies.
  bool offline = false;

  std::string doh_path = "/dns-query";
};

struct ServerQueryStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t warm_hits = 0;  // miss locally, warm in the modeled user base
  std::uint64_t cache_misses = 0;
  std::uint64_t servfails = 0;
  std::uint64_t formerrs = 0;
  std::uint64_t http_errors = 0;
  std::uint64_t doh_requests = 0;
  std::uint64_t dot_requests = 0;
  std::uint64_t do53_requests = 0;
  std::uint64_t doq_requests = 0;

  // Field-wise sum. Every total (a resolver's sites, a world's fleet) adds
  // up through here, so a field added above is summed everywhere once it is
  // added here.
  ServerQueryStats& operator+=(const ServerQueryStats& o) noexcept {
    queries += o.queries;
    cache_hits += o.cache_hits;
    warm_hits += o.warm_hits;
    cache_misses += o.cache_misses;
    servfails += o.servfails;
    formerrs += o.formerrs;
    http_errors += o.http_errors;
    doh_requests += o.doh_requests;
    dot_requests += o.dot_requests;
    do53_requests += o.do53_requests;
    doq_requests += o.doq_requests;
    return *this;
  }
};

class ResolverServer {
 public:
  // Attaches a host at `site.location` to `net` and binds all endpoints.
  // `hostname` becomes the TLS certificate name.
  ResolverServer(netsim::Network& net, std::string hostname, AnycastSite site,
                 ServerBehavior behavior);
  ~ResolverServer();

  // Takes from `net` what constructing a site with `behavior` takes, and
  // builds nothing: the site's address and its listeners' draws from the
  // network stream. A fleet that builds only the measured resolvers calls
  // this for every other site, so the sites it does build, the hosts
  // attached after the fleet and every stream forked from the network's see
  // the values the whole fleet gives them.
  static void skip(netsim::Network& net, const ServerBehavior& behavior);

  ResolverServer(const ResolverServer&) = delete;
  ResolverServer& operator=(const ResolverServer&) = delete;

  [[nodiscard]] netsim::IpAddr address() const noexcept { return addr_; }
  [[nodiscard]] const std::string& hostname() const noexcept { return hostname_; }
  [[nodiscard]] const AnycastSite& site() const noexcept { return site_; }
  [[nodiscard]] const ServerQueryStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServerBehavior& behavior() const noexcept { return behavior_; }

  // Adjust failure injection mid-simulation (outage modeling).
  void set_behavior(const ServerBehavior& behavior);

 private:
  struct DohConnState {
    transport::TlsServerSession tls;
    http::H2ServerSession h2;
    bool saw_h2_preface = false;
    bool decided = false;  // protocol sniffed on first record
    DohConnState(netsim::EventQueue& q, netsim::Rng& rng, transport::TcpServerConn& conn,
                 transport::ServerHandshakeConfig cfg)
        : tls(q, rng, conn, std::move(cfg)) {}
  };
  struct DotConnState {
    transport::TlsServerSession tls;
    DotConnState(netsim::EventQueue& q, netsim::Rng& rng, transport::TcpServerConn& conn,
                 transport::ServerHandshakeConfig cfg)
        : tls(q, rng, conn, std::move(cfg)) {}
  };

  // The query engine: parse wire, consult cache/upstream, schedule `respond`
  // with the encoded answer after the modeled delay.
  void handle_query(util::Bytes wire, std::function<void(util::Bytes)> respond);

  void setup_do53();
  void setup_dot();
  void setup_doh();
  void setup_doq();
  void handle_doh_payload(const std::shared_ptr<DohConnState>& st, util::Bytes data);

  // The handshake settings of every DoT, DoH and DoQ connection.
  [[nodiscard]] transport::ServerHandshakeConfig tls_config() const;
  // Maps behavior_ onto the DoT, DoH and DoQ listeners' failure model.
  void configure_listeners();

  netsim::Network& net_;
  std::string hostname_;
  AnycastSite site_;
  ServerBehavior behavior_;
  netsim::IpAddr addr_;
  netsim::Rng rng_;

  Cache cache_;
  ServerQueryStats stats_;

  std::unique_ptr<transport::UdpSocket> udp_;
  std::unique_ptr<transport::TcpListener> dot_listener_;
  std::unique_ptr<transport::TcpListener> doh_listener_;
  std::unique_ptr<transport::QuicListener> doq_listener_;
  // shared_ptr so deferred responses can hold weak references: a query answer
  // scheduled behind a recursion stall must not touch a connection the client
  // already tore down. Hashed (never iterated): an ordered pointer key would
  // order entries by allocation address, which differs across runs.
  std::unordered_map<const transport::TcpServerConn*, std::shared_ptr<DotConnState>> dot_conns_;
  std::unordered_map<const transport::TcpServerConn*, std::shared_ptr<DohConnState>> doh_conns_;
};

// DoT framing helpers (RFC 7858 §3.3): 2-byte length prefix per message.
[[nodiscard]] util::Bytes dot_frame(std::span<const std::uint8_t> dns_message);
[[nodiscard]] Result<std::vector<util::Bytes>> dot_unframe(std::span<const std::uint8_t> data);

}  // namespace ednsm::resolver
