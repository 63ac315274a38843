// SimWorld: the fully assembled simulated internet — event queue, network,
// resolver fleet, and vantage hosts with their connection pools. Everything a
// campaign or example needs, built from a seed.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geo/vantage.h"
#include "netsim/event_queue.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resolver/odoh.h"
#include "resolver/registry.h"
#include "transport/pool.h"

namespace ednsm::core {

class SimWorld {
 public:
  // Builds the network and the paper's full Appendix A.2 population.
  explicit SimWorld(std::uint64_t seed);
  // Builds the network and only the resolvers named in `measured` (a
  // campaign's spec.resolvers). Every unbuilt site still takes its address
  // and network-RNG draws (ResolverFleet), so a campaign over `measured`
  // writes the same records, trace and metrics in either world.
  SimWorld(std::uint64_t seed, const std::vector<std::string>& measured);

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] netsim::EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] netsim::Network& net() noexcept { return *net_; }
  [[nodiscard]] resolver::ResolverFleet& fleet() noexcept { return *fleet_; }

  // The world's trace sink, pre-wired into the event queue so any component
  // with queue access can emit. Off until Tracer::enable() is called.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }

  // Snapshot simulation-side counters into `m`: network datagram totals,
  // events executed, resolver cache/query stats summed over the built
  // fleet, and pool stats summed over attached vantages (ordered by id).
  // Deterministic for a deterministic run.
  void collect_metrics(obs::Metrics& m) const;

  struct Vantage {
    geo::VantagePoint info;
    netsim::IpAddr addr;
    std::unique_ptr<transport::ConnectionPool> pool;
  };

  // Attach (on first use) and return the vantage host for `id`; applies the
  // registry's per-vantage path quirks. Throws std::out_of_range for ids not
  // in geo::paper_vantage_points().
  [[nodiscard]] Vantage& vantage(const std::string& id);

  // The shared oblivious relay for ODoH campaigns, created on first use so
  // worlds that never measure ODoH draw no extra RNG and stay byte-identical
  // with earlier builds. The relay resolves target hostnames through the
  // fleet from its own location.
  [[nodiscard]] resolver::OdohRelay& odoh_relay();

  // Run the simulation until no events remain; returns events executed.
  std::size_t run() { return queue_.run_until_idle(); }

 private:
  netsim::EventQueue queue_;
  obs::Tracer tracer_;
  std::unique_ptr<netsim::Network> net_;
  std::unique_ptr<resolver::ResolverFleet> fleet_;
  std::map<std::string, Vantage> vantages_;
  std::unique_ptr<resolver::OdohRelay> odoh_relay_;
};

}  // namespace ednsm::core
