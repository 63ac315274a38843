// The resolver registry: every public DoH resolver from the paper's
// Appendix A.2, with the deployment attributes that drive the measured
// behaviour, plus ResolverFleet, which instantiates the whole population
// into a simulated network.
//
// Attribute sources and modeling rationale:
//  - hostname list: Appendix A.2 verbatim (75 hostnames; the paper's §3.2
//    says "91 resolvers" — the appendix enumerates 75, and we follow the
//    appendix since those are the named, reproducible targets).
//  - continent/city: the paper's own figure groupings (Figures 1-4 place
//    each resolver in North America / Europe / Asia) plus public knowledge
//    of each operator's location for the city-level placement.
//  - mainstream flag: Table 1 (Cloudflare, Google, Quad9, NextDNS,
//    CleanBrowsing, OpenDNS; the last two do not appear in A.2).
//  - footprint: mainstream resolvers are globally anycast; a few managed
//    operators run regional anycast; Hurricane Electric rides its ISP
//    backbone; everything else is a single unicast site — the paper's core
//    explanation for the response-time gap.
//  - tier: operational quality (processing latency, failure rates).
//  - quirks: the idiosyncratic per-vantage behaviours called out in §4
//    (doh.la.ahadns.net, dns.twnic.tw, antivirus.bebasid.com).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geo/coords.h"
#include "geo/geodb.h"
#include "netsim/network.h"
#include "resolver/anycast.h"
#include "resolver/server.h"

namespace ednsm::resolver {

enum class Footprint {
  GlobalAnycast,    // dozens of sites worldwide (Cloudflare/Google/Quad9 class)
  RegionalAnycast,  // a handful of sites (AdGuard/Mullvad/ControlD class)
  IspBackbone,      // Hurricane Electric: dense NA/EU, light Asia
  Unicast,          // one site
};

enum class OperatorTier {
  Hyperscale,  // sub-ms processing, negligible failure rates
  Managed,     // professional but smaller: ~0.5 ms processing, rare hiccups
  Hobbyist,    // single-operator deployments: slower, spiky, less available
};

// Extra variability this resolver exhibits from a class of vantage points
// (matched by vantage-id prefix, e.g. "home" or "ec2-frankfurt").
struct VantageQuirkSpec {
  std::string vantage_prefix;
  netsim::PathQuirk quirk;
};

struct ResolverSpec {
  std::string hostname;
  geo::Continent continent = geo::Continent::Unknown;  // Unknown = no geolocation
  std::string city;  // primary-site city ("" for Unknown)
  geo::GeoPoint location;
  bool mainstream = false;
  Footprint footprint = Footprint::Unicast;
  OperatorTier tier = OperatorTier::Hobbyist;
  bool icmp_responder = true;
  bool odoh_target = false;  // Oblivious DoH target: proxy hop on the DNS path
  // Deployment sites; filled by the registry (single entry for Unicast).
  std::vector<AnycastSite> sites;
  // Per-query processing override (ln-ms); nullopt = the tier default.
  std::optional<double> processing_mu;
  // Warm-cache override (popularity of this resolver); nullopt = tier default.
  std::optional<double> warm_cache;
  // Extra one-way path milliseconds from residential vantages: anycast CDNs
  // are reached off-net from home ISPs (+), Hurricane Electric *is* the
  // upstream transit for many access ISPs (0). Calibrates the paper's
  // home-vantage inversions.
  double home_extra_ms = 0.0;
  std::vector<VantageQuirkSpec> quirks;
};

// The full Appendix A.2 population.
[[nodiscard]] const std::vector<ResolverSpec>& paper_resolver_list();

// Lookup by hostname (nullptr if absent).
[[nodiscard]] const ResolverSpec* find_resolver(std::string_view hostname);

// Hostnames of all mainstream (Table 1) resolvers present in the registry.
[[nodiscard]] std::vector<std::string> mainstream_hostnames();

// Baseline ServerBehavior for a tier (the fleet tweaks it per resolver).
[[nodiscard]] ServerBehavior behavior_for_tier(OperatorTier tier);

// GeoDb mirroring what a GeoLite2 lookup of each resolver returns.
[[nodiscard]] geo::GeoDb build_geodb();

// ---- fleet ------------------------------------------------------------------

// Instantiates one ResolverServer per deployment site of every resolver in
// `specs` that `measured` names, and answers "which address serves hostname
// X for a client at Y" the way BGP anycast would (nearest site).
//
// The fleet walks `specs` in order and every site of an unmeasured resolver
// still takes its address and network-RNG draws (ResolverServer::skip), so
// a built site, and everything attached or forked after the fleet, is the
// same whichever resolvers are measured. Hostnames in `measured` that are
// not in `specs` build nothing.
class ResolverFleet {
 public:
  ResolverFleet(netsim::Network& net, const std::vector<ResolverSpec>& specs,
                const std::vector<std::string>& measured);

  // Address of the site that serves `hostname` for a client at `from`
  // (nullopt if the resolver was not built).
  [[nodiscard]] std::optional<netsim::IpAddr> address_for(std::string_view hostname,
                                                          const geo::GeoPoint& from) const;

  // All sites of one resolver (empty if it was not built).
  [[nodiscard]] std::vector<const ResolverServer*> sites_of(std::string_view hostname) const;

  // Apply a resolver's vantage quirks for a client host (call once per
  // vantage after attaching it, before traffic flows).
  void apply_quirks(netsim::IpAddr client, std::string_view vantage_id);

  // The specs of the built resolvers, in `specs` order.
  [[nodiscard]] const std::vector<ResolverSpec>& specs() const noexcept { return specs_; }

  // Aggregate query stats across every site of one resolver.
  [[nodiscard]] ServerQueryStats stats_of(std::string_view hostname) const;

  // Take every site of `hostname` offline (or back online) — longitudinal
  // outage modeling. No-op for a resolver that was not built.
  void set_offline(std::string_view hostname, bool offline);

 private:
  // Parallel to specs_: the deployment and its sites, in site order.
  struct Entry {
    Deployment deployment;
    std::vector<std::unique_ptr<ResolverServer>> servers;
  };

  // The entry of a built resolver (nullptr if it was not built).
  [[nodiscard]] const Entry* find(std::string_view hostname) const;

  netsim::Network& net_;
  std::vector<ResolverSpec> specs_;
  std::vector<Entry> entries_;
};

}  // namespace ednsm::resolver
