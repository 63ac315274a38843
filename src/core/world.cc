#include "core/world.h"

namespace ednsm::core {

namespace {

std::vector<std::string> every_hostname() {
  std::vector<std::string> out;
  for (const resolver::ResolverSpec& s : resolver::paper_resolver_list()) {
    out.push_back(s.hostname);
  }
  return out;
}

}  // namespace

SimWorld::SimWorld(std::uint64_t seed) : SimWorld(seed, every_hostname()) {}

SimWorld::SimWorld(std::uint64_t seed, const std::vector<std::string>& measured) {
  queue_.set_tracer(&tracer_);
  net_ = std::make_unique<netsim::Network>(queue_, netsim::Rng(seed));
  fleet_ = std::make_unique<resolver::ResolverFleet>(*net_, resolver::paper_resolver_list(),
                                                     measured);
}

void SimWorld::collect_metrics(obs::Metrics& m) const {
  const netsim::NetworkStats& ns = net_->stats();
  m.add("netsim.datagrams_sent", ns.datagrams_sent);
  m.add("netsim.datagrams_dropped", ns.datagrams_dropped);
  m.add("netsim.datagrams_delivered", ns.datagrams_delivered);
  m.add("netsim.datagrams_unroutable", ns.datagrams_unroutable);
  m.add("netsim.pings_sent", ns.pings_sent);
  m.add("netsim.pings_answered", ns.pings_answered);
  m.add("netsim.events_executed", queue_.executed_total());

  resolver::ServerQueryStats fleet_total;
  for (const resolver::ResolverSpec& spec : fleet_->specs()) {
    fleet_total += fleet_->stats_of(spec.hostname);
  }
  m.add("resolver.queries", fleet_total.queries);
  m.add("resolver.cache_hits", fleet_total.cache_hits);
  m.add("resolver.warm_hits", fleet_total.warm_hits);
  m.add("resolver.cache_misses", fleet_total.cache_misses);
  m.add("resolver.servfails", fleet_total.servfails);
  m.add("resolver.formerrs", fleet_total.formerrs);
  m.add("resolver.http_errors", fleet_total.http_errors);
  m.add("resolver.doh_requests", fleet_total.doh_requests);
  m.add("resolver.dot_requests", fleet_total.dot_requests);
  m.add("resolver.do53_requests", fleet_total.do53_requests);
  m.add("resolver.doq_requests", fleet_total.doq_requests);

  transport::PoolStats pool_total;
  for (const auto& entry : vantages_) {
    const transport::PoolStats& p = entry.second.pool->stats();
    pool_total.acquires += p.acquires;
    pool_total.reused += p.reused;
    pool_total.fresh += p.fresh;
    pool_total.handshake_failures += p.handshake_failures;
  }
  m.add("transport.pool_acquires", pool_total.acquires);
  m.add("transport.pool_reused", pool_total.reused);
  m.add("transport.pool_fresh", pool_total.fresh);
  m.add("transport.pool_handshake_failures", pool_total.handshake_failures);
}

SimWorld::Vantage& SimWorld::vantage(const std::string& id) {
  const auto it = vantages_.find(id);
  if (it != vantages_.end()) return it->second;

  const geo::VantagePoint& vp = geo::vantage_by_id(id);
  const netsim::AccessLinkModel access = vp.is_home()
                                             ? netsim::AccessLinkModel::residential()
                                             : netsim::AccessLinkModel::datacenter();
  Vantage v;
  v.info = vp;
  v.addr = net_->attach(vp.location, access);
  v.pool = std::make_unique<transport::ConnectionPool>(*net_, v.addr);
  fleet_->apply_quirks(v.addr, id);
  return vantages_.emplace(id, std::move(v)).first->second;
}

resolver::OdohRelay& SimWorld::odoh_relay() {
  if (!odoh_relay_) {
    // Colocated with the Appendix A.2 ODoH targets (New York): the relay hop
    // still adds a full client<->relay path on top of relay<->target.
    const geo::GeoPoint location = geo::city::kNewYork;
    odoh_relay_ = std::make_unique<resolver::OdohRelay>(
        *net_, "odohrelay.alekberg.net", location,
        [this, location](std::string_view host) { return fleet_->address_for(host, location); });
  }
  return *odoh_relay_;
}

}  // namespace ednsm::core
