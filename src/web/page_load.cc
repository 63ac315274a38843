#include "web/page_load.h"

#include <algorithm>
#include <set>

#include "client/doh.h"
#include "geo/geodb.h"
#include "util/bytes.h"

namespace ednsm::web {

PageSpec make_page(std::string root_domain, int objects, int domains, int depth,
                   std::uint64_t seed) {
  PageSpec page;
  page.root_domain = root_domain;
  page.depth = std::max(depth, 1);
  netsim::Rng rng(seed);

  // Root document.
  PageObject root;
  root.domain = root_domain;
  root.level = 0;
  root.cdn = true;
  root.bytes = 80 * 1024;
  page.objects.push_back(root);

  // Domain pool: the root's own assets plus third parties.
  std::vector<std::string> pool = {root_domain};
  for (int d = 1; d < std::max(domains, 1); ++d) {
    pool.push_back("cdn" + std::to_string(d) + ".assets-" +
                   std::to_string(seed % 97) + ".example");
  }

  for (int i = 1; i < std::max(objects, 1); ++i) {
    PageObject o;
    // Zipf-ish: favor early pool entries (the root + big CDNs host most).
    const std::size_t r1 = rng.uniform_u64(pool.size());
    const std::size_t r2 = rng.uniform_u64(pool.size());
    o.domain = pool[std::min(r1, r2)];
    o.level = 1 + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(page.depth)));
    o.cdn = rng.bernoulli(0.7);
    o.bytes = 5 * 1024 + static_cast<std::size_t>(rng.uniform_u64(200 * 1024));
    page.objects.push_back(std::move(o));
  }
  return page;
}

PageLoadSimulator::PageLoadSimulator(core::SimWorld& world, std::string vantage_id,
                                     std::string resolver_hostname, PageLoadOptions options)
    : world_(world),
      vantage_id_(std::move(vantage_id)),
      resolver_(std::move(resolver_hostname)),
      options_(options) {
  auto& vantage = world_.vantage(vantage_id_);
  doh_ = std::make_unique<client::DohClient>(world_.net(), *vantage.pool,
                                             options_.query_options);
  // CDN-mapping effect: the replica a client is mapped to follows the
  // *resolver's* location. "Near" = within ~1000 km of the client.
  const auto server = world_.fleet().address_for(resolver_, vantage.info.location);
  if (server.has_value()) {
    const auto loc = world_.net().location_of(*server);
    if (loc.has_value()) {
      resolver_is_near_ =
          geo::great_circle_km(vantage.info.location, *loc) < 1000.0;
    }
  }
}

std::pair<double, bool> PageLoadSimulator::resolve(const std::string& domain) {
  const netsim::SimTime now = world_.queue().now();
  const auto cached = browser_cache_.find(domain);
  if (cached != browser_cache_.end() && cached->second.ok &&
      now - cached->second.at < options_.browser_dns_ttl) {
    return {0.0, true};  // browser cache hit: free
  }

  auto& vantage = world_.vantage(vantage_id_);
  const auto server = world_.fleet().address_for(resolver_, vantage.info.location);
  auto name = dns::Name::parse(domain);
  if (!server.has_value() || !name.has_value()) return {0.0, false};

  double dns_ms = 0.0;
  bool ok = false;
  doh_->query(*server, resolver_, name.value(), dns::RecordType::A,
              [&](client::QueryOutcome o) {
                dns_ms = netsim::to_ms(o.timing.total);
                ok = o.ok;
              });
  world_.run();
  browser_cache_[domain] = CachedLookup{world_.queue().now(), ok};
  return {dns_ms, ok};
}

double PageLoadSimulator::fetch_ms(const PageObject& object) const {
  auto& world = world_;
  const auto& vantage_loc = geo::vantage_by_id(vantage_id_).location;
  (void)world;

  // Origin placement: deterministic from the domain hash across major hubs.
  static const geo::GeoPoint kHubs[] = {
      geo::city::kAshburn, geo::city::kFrankfurt, geo::city::kSingapore,
      geo::city::kSanFrancisco, geo::city::kLondon, geo::city::kTokyo,
  };
  const std::uint64_t h = util::fnv1a(object.domain);
  geo::GeoPoint origin = kHubs[h % (sizeof kHubs / sizeof kHubs[0])];

  // CDN objects are served from a nearby replica — but only when the
  // resolver is near the client; a remote resolver maps the client to a
  // replica near the *resolver* (approximated as the distant origin).
  if (object.cdn && resolver_is_near_) {
    origin = vantage_loc;  // metro-local replica
  }

  const double rtt_ms = 2.0 * geo::propagation_delay_ms(vantage_loc, origin) + 2.0;
  // Connection chain (TCP+TLS+GET ~ origin_rtt_factor RTTs) + transfer.
  const double transfer_ms =
      static_cast<double>(object.bytes) / (2.0 * 1024.0 * 1024.0) * 8.0;  // ~16 Mbit/s
  return options_.origin_rtt_factor * rtt_ms + transfer_ms;
}

PageLoadResult PageLoadSimulator::load(const PageSpec& page) {
  PageLoadResult result;

  for (int level = 0; level <= page.depth; ++level) {
    // Domains first referenced at this level resolve in parallel: the level
    // waits for the slowest lookup (WProf's critical-path rule).
    std::set<std::string> level_domains;
    for (const PageObject& o : page.objects) {
      if (o.level == level) level_domains.insert(o.domain);
    }
    if (level_domains.empty()) continue;

    double level_dns_ms = 0.0;
    for (const std::string& domain : level_domains) {
      const auto [dns_ms, ok] = resolve(domain);
      if (!ok) ++result.dns_failures;
      if (dns_ms > 0) ++result.dns_lookups;
      level_dns_ms = std::max(level_dns_ms, dns_ms);
    }

    // Objects at a level fetch in parallel: cost = slowest object.
    double level_fetch_ms = 0.0;
    for (const PageObject& o : page.objects) {
      if (o.level == level) level_fetch_ms = std::max(level_fetch_ms, fetch_ms(o));
    }

    result.dns_ms += level_dns_ms;
    result.fetch_ms += level_fetch_ms;
  }
  result.plt_ms = result.dns_ms + result.fetch_ms;
  return result;
}

}  // namespace ednsm::web
