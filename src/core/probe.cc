#include "core/probe.h"

#include "client/session.h"
#include "obs/trace.h"

namespace ednsm::core {

namespace {

ResultRecord base_record(const std::string& vantage, const std::string& resolver,
                         const std::string& domain, client::Protocol protocol, int round,
                         double issued_at_ms) {
  ResultRecord r;
  r.vantage = vantage;
  r.resolver = resolver;
  r.domain = domain;
  r.protocol = protocol;
  r.round = round;
  r.issued_at_ms = issued_at_ms;
  return r;
}

ResultRecord from_outcome(ResultRecord r, const client::QueryOutcome& outcome) {
  r.ok = outcome.ok;
  r.response_ms = netsim::to_ms(outcome.timing.total);
  r.connect_ms = netsim::to_ms(outcome.timing.connect);
  r.tcp_handshake_ms = netsim::to_ms(outcome.timing.tcp_handshake);
  r.tls_handshake_ms = netsim::to_ms(outcome.timing.tls_handshake);
  r.quic_handshake_ms = netsim::to_ms(outcome.timing.quic_handshake);
  r.pool_wait_ms = netsim::to_ms(outcome.timing.wait_in_pool);
  r.exchange_ms = netsim::to_ms(outcome.timing.exchange);
  r.connection_reused = outcome.timing.connection_reused;
  r.http_status = outcome.http_status;
  r.answer_count = static_cast<int>(outcome.answers.size());
  if (outcome.ok) {
    r.rcode = std::string(dns::to_string(outcome.rcode));
  } else if (outcome.error.has_value()) {
    r.error_class = std::string(client::to_string(outcome.error->error_class));
    r.error_detail = outcome.error->detail;
    r.failure_stage = std::string(derive_failure_stage(r.error_class));
  }
  return r;
}

// Sequential driver for one resolver's domain list. Owns the protocol
// session for the probe's queries; the connections behind it belong to the
// vantage's pool and outlive the probe as the reuse policy allows. Which
// concrete client backs the session is the SessionFactory's business.
struct ProbeChain : std::enable_shared_from_this<ProbeChain> {
  SimWorld& world;
  std::string vantage_id;
  std::string hostname;
  std::vector<std::string> domains;
  client::Protocol protocol;
  int round;
  DnsProbe::Done done;

  std::unique_ptr<client::ResolverSession> session;
  std::vector<ResultRecord> records;

  ProbeChain(SimWorld& w) : world(w), protocol(client::Protocol::DoH), round(0) {}

  void next(std::size_t index) {
    if (index >= domains.size()) {
      done(std::move(records));
      return;
    }
    const std::string& domain = domains[index];
    auto name_r = dns::Name::parse(domain);
    ResultRecord rec = base_record(vantage_id, hostname, domain, protocol, round,
                                   netsim::to_ms(world.queue().now()));
    if (!name_r) {
      rec.ok = false;
      rec.error_class = "malformed";
      rec.error_detail = name_r.error();
      rec.failure_stage = std::string(derive_failure_stage(rec.error_class));
      records.push_back(std::move(rec));
      next(index + 1);
      return;
    }
    auto self = shared_from_this();
    session->query(name_r.value(), dns::RecordType::A,
                   [self, rec = std::move(rec), index](client::QueryOutcome outcome) mutable {
                     netsim::EventQueue& q = self->world.queue();
                     OBS_COMPLETE(q, "core", "query", q.now() - outcome.timing.total,
                                  outcome.timing.total);
                     self->records.push_back(from_outcome(std::move(rec), outcome));
                     self->next(index + 1);
                   });
  }
};

}  // namespace

void DnsProbe::run(SimWorld& world, const std::string& vantage_id,
                   const std::string& resolver_hostname,
                   const std::vector<std::string>& domains, client::Protocol protocol,
                   const client::QueryOptions& options, int round, Done done) {
  auto chain = std::make_shared<ProbeChain>(world);
  chain->vantage_id = vantage_id;
  chain->hostname = resolver_hostname;
  chain->domains = domains;
  chain->protocol = protocol;
  chain->round = round;
  chain->done = std::move(done);

  SimWorld::Vantage& vantage = world.vantage(vantage_id);
  const auto server = world.fleet().address_for(resolver_hostname, vantage.info.location);
  if (!server.has_value()) {
    // Unknown hostname: every domain fails immediately with a resolution
    // error, analogous to a bootstrap DNS failure for the resolver itself.
    for (const std::string& domain : domains) {
      ResultRecord rec = base_record(vantage_id, resolver_hostname, domain, protocol, round,
                                     netsim::to_ms(world.queue().now()));
      rec.error_class = "bootstrap-failure";
      rec.error_detail = "resolver hostname not in registry";
      rec.failure_stage = std::string(derive_failure_stage(rec.error_class));
      OBS_EVENT(world.queue(), "core", "bootstrap-failure");
      chain->records.push_back(std::move(rec));
    }
    chain->done(std::move(chain->records));
    return;
  }

  client::SessionTarget target;
  target.server = *server;
  target.hostname = resolver_hostname;
  if (protocol == client::Protocol::ODoH) {
    // ODoH reaches the target through the world's shared relay; the target
    // address above is only used by ping probes (the paper's Figure 1 gap).
    resolver::OdohRelay& relay = world.odoh_relay();
    target.relay = relay.address();
    target.relay_sni = relay.hostname();
  }
  const client::SessionFactory factory(world.net(), *vantage.pool);
  chain->session = factory.create(protocol, std::move(target), options);
  chain->next(0);
}

void PingProbe::run(SimWorld& world, const std::string& vantage_id,
                    const std::string& resolver_hostname, netsim::SimDuration timeout,
                    int round, Done done) {
  PingRecord rec;
  rec.vantage = vantage_id;
  rec.resolver = resolver_hostname;
  rec.round = round;

  SimWorld::Vantage& vantage = world.vantage(vantage_id);
  const auto server = world.fleet().address_for(resolver_hostname, vantage.info.location);
  if (!server.has_value()) {
    done(std::move(rec));  // unknown host: no reply
    return;
  }
  world.net().ping(vantage.addr, *server, timeout,
                   [rec = std::move(rec), done = std::move(done)](
                       std::optional<netsim::SimDuration> rtt) mutable {
                     if (rtt.has_value()) {
                       rec.ok = true;
                       rec.rtt_ms = netsim::to_ms(*rtt);
                     }
                     done(std::move(rec));
                   });
}

}  // namespace ednsm::core
