// Web page-load model: how resolver choice affects page load time (PLT).
//
// The paper's limitations section names this as the open follow-up ("we do
// not measure how encrypted DNS affects application performance, such as web
// page load time") and its related work grounds the model:
//   - WProf (Wang et al.): DNS on the critical path can be up to ~13% of PLT;
//   - Otto et al.: distant resolvers break CDN mapping and inflate fetches;
//   - Sundaresan et al.: home PLT is significantly influenced by slow DNS.
//
// Model (WProf-style dependency levels): a page is a DAG of objects grouped
// into `depth` sequential levels (HTML -> CSS/JS -> subresources ...). Each
// level references objects across several domains; a level's DNS cost is the
// *max* across its new domains (lookups run in parallel, the level waits for
// the slowest), resolved through a real simulated DoH client with a
// browser-side DNS cache. Each level's fetch cost is a TCP+TLS+GET round-trip
// chain to each origin, with origins placed deterministically around the
// globe and the *CDN effect*: an origin marked CDN-hosted is fetched from a
// replica near the client, but only if the resolver that answered is near the
// client too (a distant resolver maps the client to a distant replica —
// Otto et al.'s effect).
#pragma once

#include <string>
#include <vector>

#include "client/doh.h"
#include "core/world.h"

namespace ednsm::web {

struct PageObject {
  std::string domain;
  int level = 0;       // dependency depth (0 = root document)
  bool cdn = true;     // served via CDN (replicated near clients)
  std::size_t bytes = 50 * 1024;
};

struct PageSpec {
  std::string root_domain;
  std::vector<PageObject> objects;  // includes the root document at level 0
  int depth = 1;
};

// Deterministic synthetic page: `objects` objects over `domains` domains in
// `depth` levels, Zipf-ish domain popularity, ~70% CDN-hosted. Same seed,
// same page.
[[nodiscard]] PageSpec make_page(std::string root_domain, int objects, int domains,
                                 int depth, std::uint64_t seed);

struct PageLoadResult {
  double plt_ms = 0;            // total page load time
  double dns_ms = 0;            // DNS share of the critical path
  double fetch_ms = 0;          // fetch share of the critical path
  int dns_lookups = 0;          // cold lookups performed (cache misses)
  int dns_failures = 0;         // lookups that errored/timed out
};

struct PageLoadOptions {
  client::QueryOptions query_options;  // reuse policy etc. for the DoH client
  double origin_rtt_factor = 3.0;      // round trips per object fetch chain
  netsim::SimDuration browser_dns_ttl = std::chrono::seconds(60);
};

// Loads pages from one vantage through one DoH resolver, keeping a
// browser-style DNS cache across page loads (so a "second visit" is warm).
class PageLoadSimulator {
 public:
  PageLoadSimulator(core::SimWorld& world, std::string vantage_id,
                    std::string resolver_hostname, PageLoadOptions options = {});

  // Synchronously (in simulated time) loads the page and returns the
  // breakdown. Runs the world's event loop.
  [[nodiscard]] PageLoadResult load(const PageSpec& page);

  void clear_browser_cache() { browser_cache_.clear(); }

 private:
  struct CachedLookup {
    netsim::SimTime at{0};
    bool ok = false;
  };

  // Resolve one domain (through the cache); returns (dns_ms, ok).
  std::pair<double, bool> resolve(const std::string& domain);

  // Fetch cost for one object given resolver proximity (CDN mapping effect).
  [[nodiscard]] double fetch_ms(const PageObject& object) const;

  core::SimWorld& world_;
  std::string vantage_id_;
  std::string resolver_;
  PageLoadOptions options_;
  std::unique_ptr<client::DohClient> doh_;
  std::map<std::string, CachedLookup> browser_cache_;
  bool resolver_is_near_ = false;  // resolver site close to the client?
};

}  // namespace ednsm::web
