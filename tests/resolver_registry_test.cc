#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>

#include "resolver/browsers.h"
#include "resolver/registry.h"

namespace ednsm::resolver {
namespace {

using geo::Continent;

TEST(Registry, PopulationSizeMatchesAppendix) {
  // Appendix A.2 enumerates 75 hostnames.
  EXPECT_EQ(paper_resolver_list().size(), 75u);
}

TEST(Registry, HostnamesAreUnique) {
  std::set<std::string> seen;
  for (const ResolverSpec& s : paper_resolver_list()) {
    EXPECT_TRUE(seen.insert(s.hostname).second) << "duplicate: " << s.hostname;
  }
}

TEST(Registry, ContinentBreakdown) {
  int na = 0, eu = 0, asia = 0, oceania = 0, unknown = 0;
  for (const ResolverSpec& s : paper_resolver_list()) {
    switch (s.continent) {
      case Continent::NorthAmerica: ++na; break;
      case Continent::Europe: ++eu; break;
      case Continent::Asia: ++asia; break;
      case Continent::Oceania: ++oceania; break;
      case Continent::Unknown: ++unknown; break;
      default: break;
    }
  }
  // The paper reports 13 resolvers in Asia; our registry matches exactly.
  EXPECT_EQ(asia, 13);
  // NA and EU counts are close to the paper's 18/33 (see DESIGN.md).
  EXPECT_GT(na, 15);
  EXPECT_GT(eu, 25);
  EXPECT_EQ(oceania, 5);
  EXPECT_EQ(unknown, 3);
  EXPECT_EQ(na + eu + asia + oceania + unknown, 75);
}

// Whether a registry hostname belongs to Cloudflare, Google, Quad9 or NextDNS.
bool table1_mainstream_host(std::string_view host) {
  return host == "dns.google" || host.ends_with("cloudflare-dns.com") ||
         host.ends_with("quad9.net") || host.ends_with("nextdns.io");
}

TEST(Registry, MainstreamSetMatchesTable1Providers) {
  for (const std::string& host : mainstream_hostnames()) {
    EXPECT_TRUE(table1_mainstream_host(host)) << host;
  }
  // All Cloudflare/Google/Quad9/NextDNS registry entries are mainstream.
  for (const ResolverSpec& s : paper_resolver_list()) {
    EXPECT_EQ(s.mainstream, table1_mainstream_host(s.hostname)) << s.hostname;
  }
}

TEST(Registry, MainstreamAreGloballyAnycast) {
  for (const ResolverSpec& s : paper_resolver_list()) {
    if (!s.mainstream) continue;
    EXPECT_EQ(s.footprint, Footprint::GlobalAnycast) << s.hostname;
    EXPECT_GT(s.sites.size(), 10u) << s.hostname;
  }
}

TEST(Registry, KeyResolversPresent) {
  // The resolvers §4 names explicitly must exist with the right shape.
  const ResolverSpec* he = find_resolver("ordns.he.net");
  ASSERT_NE(he, nullptr);
  EXPECT_EQ(he->footprint, Footprint::IspBackbone);
  EXPECT_FALSE(he->mainstream);

  const ResolverSpec* controld = find_resolver("freedns.controld.com");
  ASSERT_NE(controld, nullptr);
  EXPECT_TRUE(controld->sites.size() > 1);

  const ResolverSpec* brahma = find_resolver("dns.brahma.world");
  ASSERT_NE(brahma, nullptr);
  EXPECT_EQ(brahma->continent, Continent::Europe);

  const ResolverSpec* alidns = find_resolver("dns.alidns.com");
  ASSERT_NE(alidns, nullptr);
  bool has_seoul_adjacent = false;
  for (const AnycastSite& site : alidns->sites) {
    if (geo::great_circle_km(site.location, geo::city::kSeoul) < 1500) {
      has_seoul_adjacent = true;
    }
  }
  EXPECT_TRUE(has_seoul_adjacent);

  EXPECT_EQ(find_resolver("no.such.resolver"), nullptr);
}

TEST(Registry, OdohTargetsAreMarked) {
  int odoh = 0;
  for (const ResolverSpec& s : paper_resolver_list()) {
    if (s.odoh_target) {
      ++odoh;
      EXPECT_NE(s.hostname.find("odoh-target"), std::string::npos);
    }
  }
  EXPECT_EQ(odoh, 4);
}

TEST(Registry, SomeResolversFilterIcmp) {
  int silent = 0;
  for (const ResolverSpec& s : paper_resolver_list()) {
    if (!s.icmp_responder) ++silent;
  }
  EXPECT_GT(silent, 2);
  EXPECT_LT(silent, 12);
}

TEST(Registry, QuirkedResolversFromPaper) {
  const ResolverSpec* ahadns = find_resolver("doh.la.ahadns.net");
  ASSERT_NE(ahadns, nullptr);
  ASSERT_FALSE(ahadns->quirks.empty());
  EXPECT_EQ(ahadns->quirks[0].vantage_prefix, "home");

  const ResolverSpec* twnic = find_resolver("dns.twnic.tw");
  ASSERT_NE(twnic, nullptr);
  ASSERT_FALSE(twnic->quirks.empty());
  EXPECT_GT(twnic->quirks[0].quirk.extra_base_ms, 0.0);

  const ResolverSpec* bebasid = find_resolver("antivirus.bebasid.com");
  ASSERT_NE(bebasid, nullptr);
  EXPECT_EQ(bebasid->quirks.size(), 2u);  // Ohio + Frankfurt
}

TEST(Registry, TierBehaviorsAreOrdered) {
  const ServerBehavior hyper = behavior_for_tier(OperatorTier::Hyperscale);
  const ServerBehavior managed = behavior_for_tier(OperatorTier::Managed);
  const ServerBehavior hobby = behavior_for_tier(OperatorTier::Hobbyist);
  EXPECT_LT(hyper.processing_mu, managed.processing_mu);
  EXPECT_LT(managed.processing_mu, hobby.processing_mu);
  EXPECT_LT(hyper.connect_drop_probability, hobby.connect_drop_probability);
  EXPECT_GT(hyper.warm_cache_probability, hobby.warm_cache_probability);
}

TEST(Registry, GeoDbMirrorsRegistry) {
  const geo::GeoDb db = build_geodb();
  EXPECT_EQ(db.size(), paper_resolver_list().size());
  auto google = db.lookup("dns.google");
  ASSERT_TRUE(google.has_value());
  EXPECT_EQ(google->continent, Continent::NorthAmerica);
  // "Unable to return a location" resolvers look absent, like GeoLite2.
  EXPECT_FALSE(db.lookup("chewbacca.meganerd.nl").has_value());
  EXPECT_FALSE(db.lookup("puredns.org").has_value());
}

// ---- Table 1 -------------------------------------------------------------------

TEST(Browsers, Table1RowsExact) {
  using B = Browser;
  using P = Provider;
  const auto offered = [](Browser b) {
    return std::count_if(all_providers().begin(), all_providers().end(),
                         [&](Provider p) { return browser_offers(b, p); });
  };
  // Chrome: all but OpenDNS.
  EXPECT_TRUE(browser_offers(B::Chrome, P::Cloudflare));
  EXPECT_TRUE(browser_offers(B::Chrome, P::CleanBrowsing));
  EXPECT_FALSE(browser_offers(B::Chrome, P::OpenDNS));
  // Firefox: Cloudflare + NextDNS only.
  EXPECT_EQ(offered(B::Firefox), 2);
  EXPECT_TRUE(browser_offers(B::Firefox, P::NextDNS));
  EXPECT_FALSE(browser_offers(B::Firefox, P::Google));
  // Edge & Brave: all six.
  EXPECT_EQ(offered(B::Edge), 6);
  EXPECT_EQ(offered(B::Brave), 6);
  // Opera: Cloudflare + Google.
  EXPECT_EQ(offered(B::Opera), 2);
  EXPECT_TRUE(browser_offers(B::Opera, P::Google));
}

TEST(Browsers, Names) {
  EXPECT_EQ(to_string(Browser::Chrome), "Chrome");
  EXPECT_EQ(to_string(Provider::CleanBrowsing), "CleanBrowsing");
}

// ---- fleet ---------------------------------------------------------------------

std::vector<std::string> every_hostname() {
  std::vector<std::string> out;
  for (const ResolverSpec& s : paper_resolver_list()) out.push_back(s.hostname);
  return out;
}

TEST(Fleet, InstantiatesAllSites) {
  netsim::EventQueue queue;
  netsim::Network net(queue, netsim::Rng(3));
  ResolverFleet fleet(net, paper_resolver_list(), every_hostname());
  // Mainstream resolvers have many sites, the rest one.
  EXPECT_EQ(fleet.sites_of("dns.google").size(), global_anycast_sites().size());
  EXPECT_EQ(fleet.sites_of("doh.ffmuc.net").size(), 1u);
  EXPECT_TRUE(fleet.sites_of("nonexistent").empty());
}

TEST(Fleet, AddressForPicksNearestSite) {
  netsim::EventQueue queue;
  netsim::Network net(queue, netsim::Rng(3));
  ResolverFleet fleet(net, paper_resolver_list(), every_hostname());

  const auto from_seoul = fleet.address_for("dns.google", geo::city::kSeoul);
  ASSERT_TRUE(from_seoul.has_value());
  const auto from_chicago = fleet.address_for("dns.google", geo::city::kChicago);
  ASSERT_TRUE(from_chicago.has_value());
  EXPECT_NE(*from_seoul, *from_chicago);

  // Unicast: same address from everywhere.
  const auto ffmuc_a = fleet.address_for("doh.ffmuc.net", geo::city::kSeoul);
  const auto ffmuc_b = fleet.address_for("doh.ffmuc.net", geo::city::kChicago);
  ASSERT_TRUE(ffmuc_a.has_value());
  EXPECT_EQ(*ffmuc_a, *ffmuc_b);

  EXPECT_FALSE(fleet.address_for("nope", geo::city::kSeoul).has_value());
}

}  // namespace
}  // namespace ednsm::resolver
