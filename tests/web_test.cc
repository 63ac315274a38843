#include <gtest/gtest.h>

#include <set>
#include <string>

#include "web/page_load.h"

namespace ednsm::web {
namespace {

TEST(PageSpec, GenerationIsDeterministic) {
  const PageSpec a = make_page("news.example.com", 40, 8, 3, 7);
  const PageSpec b = make_page("news.example.com", 40, 8, 3, 7);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].domain, b.objects[i].domain);
    EXPECT_EQ(a.objects[i].level, b.objects[i].level);
  }
}

TEST(PageSpec, ShapeRespectsParameters) {
  const PageSpec page = make_page("shop.example.com", 50, 10, 4, 3);
  EXPECT_EQ(page.objects.size(), 50u);
  std::set<std::string> domains;
  for (const PageObject& o : page.objects) domains.insert(o.domain);
  EXPECT_LE(domains.size(), 10u);
  EXPECT_GE(domains.size(), 3u);
  EXPECT_EQ(page.objects[0].level, 0);
  EXPECT_EQ(page.objects[0].domain, "shop.example.com");
  for (const PageObject& o : page.objects) {
    EXPECT_GE(o.level, 0);
    EXPECT_LE(o.level, 4);
  }
}

struct PltFixture : ::testing::Test {
  core::SimWorld world{71};
  PageSpec page = make_page("news.example.com", 30, 8, 3, 11);
};

TEST_F(PltFixture, DnsShareIsPlausible) {
  PageLoadSimulator sim(world, "home-chicago-1", "dns.google");
  const PageLoadResult r = sim.load(page);
  EXPECT_GT(r.plt_ms, 0.0);
  EXPECT_GT(r.dns_ms, 0.0);
  EXPECT_GT(r.dns_lookups, 0);
  // WProf: DNS is a noticeable but minority share of the critical path.
  EXPECT_GT(r.dns_ms / r.plt_ms, 0.02);
  EXPECT_LT(r.dns_ms / r.plt_ms, 0.6);
}

TEST_F(PltFixture, SlowResolverInflatesPlt) {
  PageLoadSimulator fast(world, "home-chicago-1", "dns.google");
  PageLoadSimulator slow(world, "home-chicago-1", "doh.ffmuc.net");  // Munich unicast
  const PageLoadResult rf = fast.load(page);
  const PageLoadResult rs = slow.load(page);
  EXPECT_GT(rs.dns_ms, rf.dns_ms * 2.0);
  EXPECT_GT(rs.plt_ms, rf.plt_ms);
}

TEST_F(PltFixture, SecondVisitIsWarm) {
  PageLoadSimulator sim(world, "home-chicago-1", "dns.google");
  const PageLoadResult first = sim.load(page);
  const PageLoadResult second = sim.load(page);  // browser DNS cache warm
  EXPECT_EQ(second.dns_lookups, 0);
  EXPECT_LT(second.dns_ms, 0.001);
  EXPECT_LT(second.plt_ms, first.plt_ms);
}

TEST_F(PltFixture, ClearBrowserCacheForcesLookups) {
  PageLoadSimulator sim(world, "home-chicago-1", "dns.google");
  (void)sim.load(page);
  sim.clear_browser_cache();
  const PageLoadResult again = sim.load(page);
  EXPECT_GT(again.dns_lookups, 0);
}

TEST_F(PltFixture, CdnMappingPenalizesRemoteResolvers) {
  // Otto et al.: a distant resolver maps the client to distant CDN replicas,
  // so the *fetch* share grows too, not just the DNS share.
  PageLoadSimulator near_resolver(world, "home-chicago-1", "dns.google");
  PageLoadSimulator far_resolver(world, "home-chicago-1", "dns.alidns.com");  // Asia
  const PageLoadResult rn = near_resolver.load(page);
  const PageLoadResult rff = far_resolver.load(page);
  EXPECT_GT(rff.fetch_ms, rn.fetch_ms + 10.0);
}

TEST_F(PltFixture, ConnectionReuseShrinksDnsShare) {
  PageLoadOptions reuse;
  reuse.query_options.reuse = transport::ReusePolicy::Keepalive;
  PageLoadSimulator cold(world, "home-chicago-1", "dns.quad9.net");
  PageLoadSimulator warm(world, "home-chicago-2", "dns.quad9.net", reuse);
  const PageLoadResult rc = cold.load(page);
  const PageLoadResult rw = warm.load(page);
  EXPECT_LT(rw.dns_ms, rc.dns_ms);
}

}  // namespace
}  // namespace ednsm::web
