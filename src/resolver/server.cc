#include "resolver/server.h"

#include "dns/wire.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/strings.h"

namespace ednsm::resolver {

using netsim::Endpoint;

util::Bytes dot_frame(std::span<const std::uint8_t> dns_message) {
  dns::WireWriter w;
  w.u16(static_cast<std::uint16_t>(dns_message.size()));
  w.bytes(dns_message);
  return std::move(w).take();
}

Result<std::vector<util::Bytes>> dot_unframe(std::span<const std::uint8_t> data) {
  std::vector<util::Bytes> out;
  dns::WireReader r(data);
  while (!r.at_end()) {
    auto len = r.u16();
    if (!len) return Err{std::string("dot: truncated length prefix")};
    auto msg = r.bytes(len.value());
    if (!msg) return Err{std::string("dot: truncated message")};
    out.push_back(std::move(msg).value());
  }
  return out;
}

ResolverServer::ResolverServer(netsim::Network& net, std::string hostname, AnycastSite site,
                               ServerBehavior behavior)
    : net_(net),
      hostname_(std::move(hostname)),
      site_(std::move(site)),
      behavior_(std::move(behavior)),
      addr_(net.attach(site_.location, netsim::AccessLinkModel::datacenter())),
      rng_(net.rng().fork(util::fnv1a(hostname_ + "/" + site_.city))) {
  if (behavior_.supports_do53) setup_do53();
  if (behavior_.supports_dot) setup_dot();
  if (behavior_.supports_doh) setup_doh();
  if (behavior_.supports_doq) setup_doq();
  configure_listeners();
}

ResolverServer::~ResolverServer() = default;

void ResolverServer::skip(netsim::Network& net, const ServerBehavior& behavior) {
  net.skip_address();
  // What the constructor draws from the network stream: one value per
  // TcpListener (its salt: setup_dot, setup_doh) and two per QuicListener
  // (salt and first ticket id: setup_doq). The UdpSocket of setup_do53 and
  // the fork of rng_ draw none.
  const int draws = (behavior.supports_dot ? 1 : 0) + (behavior.supports_doh ? 1 : 0) +
                    (behavior.supports_doq ? 2 : 0);
  for (int i = 0; i < draws; ++i) (void)net.rng().next_u64();
}

transport::ServerHandshakeConfig ResolverServer::tls_config() const {
  transport::ServerHandshakeConfig cfg;
  cfg.certificate_names = {hostname_};
  cfg.handshake_failure_probability = behavior_.tls_failure_probability;
  return cfg;
}

void ResolverServer::set_behavior(const ServerBehavior& behavior) {
  behavior_ = behavior;
  configure_listeners();
}

void ResolverServer::configure_listeners() {
  const double drop = behavior_.offline ? 1.0 : behavior_.connect_drop_probability;
  auto configure = [&](auto& listener) {
    if (!listener) return;
    listener->set_refuse_probability(behavior_.connect_refuse_probability);
    listener->set_drop_probability(drop);
  };
  configure(dot_listener_);
  configure(doh_listener_);
  configure(doq_listener_);
}

// ---- query engine -----------------------------------------------------------

void ResolverServer::handle_query(util::Bytes wire,
                                  std::function<void(util::Bytes)> respond) {
  if (behavior_.offline) return;  // outage: silence on every protocol
  ++stats_.queries;
  auto query_r = dns::Message::decode(wire);
  if (!query_r) {
    ++stats_.formerrs;
    // FORMERR with a best-effort id echo (first two bytes if present).
    dns::Message err;
    err.header.qr = true;
    err.header.rcode = dns::Rcode::FormErr;
    if (wire.size() >= 2) {
      err.header.id = static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
    }
    respond(err.encode());
    return;
  }
  const dns::Message query = std::move(query_r).value();
  if (query.questions.empty()) {
    ++stats_.formerrs;
    respond(dns::make_response(query, dns::Rcode::FormErr, {}).encode());
    return;
  }

  const dns::Question& q = query.questions.front();
  const CacheKey key{q.qname, q.qtype, q.qclass};
  const netsim::SimTime now = net_.queue().now();

  double delay_ms = behavior_.extra_response_ms +
                    rng_.lognormal(behavior_.processing_mu, behavior_.processing_sigma);
  if (behavior_.load_spike_probability > 0.0 && rng_.bernoulli(behavior_.load_spike_probability)) {
    delay_ms += rng_.pareto(behavior_.load_spike_scale_ms, behavior_.load_spike_alpha);
  }

  dns::Rcode rcode = dns::Rcode::NoError;
  std::vector<dns::ResourceRecord> answers;

  if (auto hit = cache_.lookup(key, now); hit.has_value()) {
    ++stats_.cache_hits;
    OBS_EVENT(net_.queue(), "resolver", "cache-hit");
    rcode = hit->rcode;
    answers = std::move(hit->answers);
  } else if (rng_.bernoulli(behavior_.warm_cache_probability)) {
    // Another client of this resolver kept the entry warm; to our probe it
    // is indistinguishable from a local hit.
    ++stats_.warm_hits;
    OBS_EVENT(net_.queue(), "resolver", "cache-warm-hit");
    answers = synthesize_answers(q.qname, q.qtype);
    cache_.insert(key, dns::Rcode::NoError, answers, now);
  } else {
    ++stats_.cache_misses;
    OBS_EVENT(net_.queue(), "resolver", "cache-miss");
    if (sample_servfail(behavior_.upstream, rng_)) {
      ++stats_.servfails;
      OBS_EVENT(net_.queue(), "resolver", "upstream-servfail");
      rcode = dns::Rcode::ServFail;
      delay_ms += behavior_.upstream.servfail_stall_ms;
    } else {
      delay_ms += behavior_.upstream.sample_latency_ms(rng_);
      answers = synthesize_answers(q.qname, q.qtype);
      cache_.insert(key, dns::Rcode::NoError, answers, now);
    }
  }

  dns::Message response = dns::make_response(query, rcode, std::move(answers));
  OBS_COMPLETE(net_.queue(), "resolver", "resolve", now, netsim::from_ms(delay_ms));
  net_.queue().schedule(netsim::from_ms(delay_ms),
                        [respond = std::move(respond), wire_out = response.encode()]() {
                          respond(wire_out);
                        });
}

// ---- Do53 -------------------------------------------------------------------

void ResolverServer::setup_do53() {
  udp_ = std::make_unique<transport::UdpSocket>(net_, Endpoint{addr_, netsim::kPortDns});
  udp_->on_receive([this](const netsim::Datagram& d) {
    ++stats_.do53_requests;
    const Endpoint peer = d.src;
    handle_query(d.payload, [this, peer](util::Bytes response) {
      udp_->send_to(peer, std::move(response));
    });
  });
}

// ---- DoT --------------------------------------------------------------------

void ResolverServer::setup_dot() {
  dot_listener_ =
      std::make_unique<transport::TcpListener>(net_, Endpoint{addr_, netsim::kPortDot});

  dot_listener_->on_accept([this](transport::TcpServerConn& conn) {
    auto state = std::make_shared<DotConnState>(net_.queue(), rng_, conn, tls_config());
    dot_conns_[&conn] = state;
    std::weak_ptr<DotConnState> weak = state;

    state->tls.on_data([this, weak](util::Bytes data) {
      auto messages = dot_unframe(data);
      if (!messages) return;  // malformed framing: drop, client will time out
      for (util::Bytes& msg : messages.value()) {
        ++stats_.dot_requests;
        handle_query(std::move(msg), [weak](util::Bytes response) {
          if (auto st = weak.lock()) st->tls.send(dot_frame(response));
        });
      }
    });
  });
  dot_listener_->on_close(
      [this](transport::TcpServerConn& conn) { dot_conns_.erase(&conn); });
}

// ---- DoQ --------------------------------------------------------------------

void ResolverServer::setup_doq() {
  doq_listener_ = std::make_unique<transport::QuicListener>(
      net_, Endpoint{addr_, netsim::kPortDoq}, tls_config());

  doq_listener_->on_accept([this](const std::shared_ptr<transport::QuicServerConn>& conn) {
    std::weak_ptr<transport::QuicServerConn> weak = conn;
    conn->on_stream([this, weak](std::uint64_t stream_id, util::Bytes data) {
      // RFC 9250 §4.2: each query is one 2-byte-length-prefixed message on
      // its own stream; the response goes back on the same stream.
      auto messages = dot_unframe(data);
      if (!messages) return;
      for (util::Bytes& msg : messages.value()) {
        ++stats_.doq_requests;
        handle_query(std::move(msg), [weak, stream_id](util::Bytes response) {
          if (auto live = weak.lock()) live->send_stream(stream_id, dot_frame(response));
        });
      }
    });
  });
}

// ---- DoH --------------------------------------------------------------------

void ResolverServer::setup_doh() {
  doh_listener_ =
      std::make_unique<transport::TcpListener>(net_, Endpoint{addr_, netsim::kPortHttps});

  doh_listener_->on_accept([this](transport::TcpServerConn& conn) {
    auto state = std::make_shared<DohConnState>(net_.queue(), rng_, conn, tls_config());
    doh_conns_[&conn] = state;
    std::weak_ptr<DohConnState> weak = state;

    state->tls.on_data([this, weak](util::Bytes data) {
      if (auto locked = weak.lock()) handle_doh_payload(locked, std::move(data));
    });
  });
  doh_listener_->on_close(
      [this](transport::TcpServerConn& conn) { doh_conns_.erase(&conn); });
}

void ResolverServer::handle_doh_payload(const std::shared_ptr<DohConnState>& st,
                                        util::Bytes data) {
  // Protocol sniff on the first decrypted record: HTTP/2 begins with the
  // fixed preface, HTTP/1.1 with a method token.
  if (!st->decided) {
    st->decided = true;
    const auto preface = http::client_preface();
    st->saw_h2_preface =
        data.size() >= preface.size() && std::equal(preface.begin(), preface.end(), data.begin());
  }

  auto answer = [this, st](std::uint32_t stream_id, const http::Request& req, bool via_h2) {
    ++stats_.doh_requests;
    // Inject HTTP-level failures before looking at the query.
    if (behavior_.http_error_probability > 0.0 &&
        rng_.bernoulli(behavior_.http_error_probability)) {
      ++stats_.http_errors;
      http::Response err;
      err.status = 503;
      st->tls.send(via_h2 ? st->h2.serialize_response(stream_id, err) : err.encode());
      return;
    }

    if (req.path.substr(0, behavior_.doh_path.size()) != behavior_.doh_path) {
      http::Response nf;
      nf.status = 404;
      st->tls.send(via_h2 ? st->h2.serialize_response(stream_id, nf) : nf.encode());
      return;
    }

    auto dns_msg = http::extract_dns_message(req);
    if (!dns_msg) {
      http::Response bad;
      bad.status = 400;
      bad.body = util::to_bytes(dns_msg.error());
      st->tls.send(via_h2 ? st->h2.serialize_response(stream_id, bad) : bad.encode());
      return;
    }

    std::weak_ptr<DohConnState> weak = st;
    handle_query(std::move(dns_msg).value(),
                 [weak, stream_id, via_h2](util::Bytes response_wire) {
                   auto stp = weak.lock();
                   if (!stp) return;  // client gave up; connection is gone
                   // Use the answer's min TTL for cache-control, per RFC 8484.
                   std::uint32_t min_ttl = 0;
                   if (auto m = dns::Message::decode(response_wire);
                       m && !m.value().answers.empty()) {
                     min_ttl = m.value().answers.front().ttl;
                     for (const auto& rr : m.value().answers) {
                       min_ttl = std::min(min_ttl, rr.ttl);
                     }
                   }
                   http::Response resp =
                       http::make_doh_response(std::move(response_wire), min_ttl);
                   stp->tls.send(via_h2 ? stp->h2.serialize_response(stream_id, resp)
                                        : resp.encode());
                 });
  };

  if (st->saw_h2_preface) {
    st->h2.feed(data, [&](std::uint32_t stream_id, Result<http::Request> req) {
      if (!req) return;  // malformed run: drop
      answer(stream_id, req.value(), /*via_h2=*/true);
    });
  } else {
    auto req = http::Request::decode(data);
    if (!req) {
      http::Response bad;
      bad.status = 400;
      st->tls.send(bad.encode());
      return;
    }
    answer(0, req.value(), /*via_h2=*/false);
  }
}

}  // namespace ednsm::resolver
