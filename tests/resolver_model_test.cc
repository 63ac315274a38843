#include <gtest/gtest.h>

#include "geo/geodb.h"
#include <cmath>

#include "resolver/anycast.h"
#include "resolver/upstream.h"

namespace ednsm::resolver {
namespace {

namespace c = geo::city;

// ---- anycast -------------------------------------------------------------------

TEST(Anycast, UnicastHasSingleSite) {
  const Deployment d = Deployment::unicast({"Munich", c::kMunich});
  EXPECT_EQ(d.sites().size(), 1u);
  EXPECT_EQ(d.site_for(c::kSeoul).city, "Munich");
}

TEST(Anycast, NearestSiteWins) {
  const Deployment d = Deployment::anycast(global_anycast_sites());
  EXPECT_EQ(d.site_for(c::kColumbusOhio).city, "Chicago");
  EXPECT_EQ(d.site_for(c::kFrankfurt).city, "Frankfurt");
  EXPECT_EQ(d.site_for(c::kSeoul).city, "Seoul");
}

TEST(Anycast, GlobalFootprintServesSeoulLocally) {
  const Deployment d = Deployment::anycast(global_anycast_sites());
  const AnycastSite& site = d.site_for(c::kSeoul);
  EXPECT_LT(geo::great_circle_km(site.location, c::kSeoul), 1200.0);
}

TEST(Anycast, IspBackboneThinInAsia) {
  const Deployment d = Deployment::anycast(isp_backbone_sites());
  // Hurricane Electric's nearest PoP to Seoul is Tokyo, not Seoul.
  EXPECT_EQ(d.site_for(c::kSeoul).city, "Tokyo");
  // Dense in the US: Chicago client served from Chicago.
  EXPECT_EQ(d.site_for(c::kChicago).city, "Chicago");
}

// ---- upstream ------------------------------------------------------------------

TEST(Upstream, LatencyWithinDepthBounds) {
  UpstreamModel m;
  m.depth_min = 2;
  m.depth_max = 2;
  m.authority_rtt_mu = 3.0;
  m.authority_rtt_sigma = 0.0;  // deterministic: exactly e^3 per hop
  netsim::Rng rng(5);
  const double lat = m.sample_latency_ms(rng);
  EXPECT_NEAR(lat, 2.0 * std::exp(3.0), 1e-6);
}

TEST(Upstream, DeeperRecursionIsSlowerOnAverage) {
  UpstreamModel shallow;
  shallow.depth_min = shallow.depth_max = 1;
  UpstreamModel deep;
  deep.depth_min = deep.depth_max = 3;
  netsim::Rng rng1(7), rng2(7);
  double s = 0, d = 0;
  for (int i = 0; i < 3000; ++i) {
    s += shallow.sample_latency_ms(rng1);
    d += deep.sample_latency_ms(rng2);
  }
  EXPECT_GT(d, 2.0 * s);
}

TEST(Upstream, ServfailFrequencyMatchesProbability) {
  UpstreamModel m;
  m.servfail_probability = 0.1;
  netsim::Rng rng(11);
  int fails = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) fails += sample_servfail(m, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.1, 0.01);
}

TEST(Upstream, SynthesizedAnswersAreDeterministic) {
  const dns::Name name = dns::Name::parse("google.com").value();
  const auto a = synthesize_answers(name, dns::RecordType::A);
  const auto b = synthesize_answers(name, dns::RecordType::A);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a[0].ttl, 300u);
  EXPECT_LT(a[0].ttl, 3900u);
}

TEST(Upstream, DifferentDomainsDifferentAnswers) {
  const auto a = synthesize_answers(dns::Name::parse("google.com").value(),
                                    dns::RecordType::A);
  const auto b = synthesize_answers(dns::Name::parse("amazon.com").value(),
                                    dns::RecordType::A);
  EXPECT_NE(a, b);
}

TEST(Upstream, AaaaAndTxtSupported) {
  const dns::Name name = dns::Name::parse("wikipedia.com").value();
  const auto aaaa = synthesize_answers(name, dns::RecordType::AAAA);
  ASSERT_EQ(aaaa.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<dns::AaaaRecord>(aaaa[0].rdata));
  const auto txt = synthesize_answers(name, dns::RecordType::TXT);
  ASSERT_EQ(txt.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<dns::TxtRecord>(txt[0].rdata));
}

TEST(Upstream, UnknownTypeYieldsNodata) {
  const auto answers = synthesize_answers(dns::Name::parse("x.com").value(),
                                          dns::RecordType::SOA);
  EXPECT_TRUE(answers.empty());
}

TEST(Upstream, AnswersRoundTripThroughWire) {
  const dns::Name name = dns::Name::parse("google.com").value();
  dns::Message q = dns::make_query(1, name, dns::RecordType::A);
  dns::Message resp = dns::make_response(q, dns::Rcode::NoError,
                                         synthesize_answers(name, dns::RecordType::A));
  auto decoded = dns::Message::decode(resp.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().answers, resp.answers);
}

}  // namespace
}  // namespace ednsm::resolver
