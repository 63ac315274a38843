#include <gtest/gtest.h>

#include "geo/coords.h"
#include "geo/geodb.h"
#include "geo/vantage.h"

namespace ednsm::geo {
namespace {

TEST(Coords, ZeroDistanceToSelf) {
  EXPECT_DOUBLE_EQ(great_circle_km(city::kChicago, city::kChicago), 0.0);
}

TEST(Coords, KnownDistances) {
  // Chicago <-> Frankfurt is about 6,970 km.
  const double km = great_circle_km(city::kChicago, city::kFrankfurt);
  EXPECT_GT(km, 6600.0);
  EXPECT_LT(km, 7300.0);
  // Seoul <-> Tokyo about 1,150 km.
  const double st = great_circle_km(city::kSeoul, city::kTokyo);
  EXPECT_GT(st, 1000.0);
  EXPECT_LT(st, 1300.0);
}

TEST(Coords, Symmetry) {
  EXPECT_DOUBLE_EQ(great_circle_km(city::kParis, city::kSydney),
                   great_circle_km(city::kSydney, city::kParis));
}

TEST(Coords, TriangleInequalityHolds) {
  const double ab = great_circle_km(city::kChicago, city::kLondon);
  const double bc = great_circle_km(city::kLondon, city::kFrankfurt);
  const double ac = great_circle_km(city::kChicago, city::kFrankfurt);
  EXPECT_LE(ac, ab + bc + 1e-6);
}

TEST(Coords, PropagationDelayScalesWithDistance) {
  const double near = propagation_delay_ms(city::kChicago, city::kColumbusOhio);
  const double far = propagation_delay_ms(city::kChicago, city::kSeoul);
  EXPECT_LT(near, 6.0);   // ~450 km
  EXPECT_GT(far, 60.0);   // ~10,500 km
  EXPECT_LT(far, 130.0);
}

TEST(Coords, StretchFactorIsLinear) {
  const double base = propagation_delay_ms(city::kParis, city::kTokyo, 1.0);
  const double stretched = propagation_delay_ms(city::kParis, city::kTokyo, 2.0);
  EXPECT_NEAR(stretched, 2.0 * base, 1e-9);
}

TEST(Coords, ContinentNames) {
  EXPECT_EQ(to_string(Continent::NorthAmerica), "North America");
  EXPECT_EQ(to_string(Continent::Unknown), "Unknown");
}

TEST(GeoDb, LookupHitAndMiss) {
  GeoDb db;
  db.add("dns.example", {"Frankfurt", Continent::Europe, city::kFrankfurt});
  auto hit = db.lookup("dns.example");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->city, "Frankfurt");
  EXPECT_FALSE(db.lookup("unknown.example").has_value());
}

TEST(GeoDb, UnknownContinentBehavesLikeNoLocation) {
  GeoDb db;
  db.add("nowhere.example", {"", Continent::Unknown, {}});
  EXPECT_FALSE(db.lookup("nowhere.example").has_value());
  EXPECT_EQ(db.size(), 1u);
}

TEST(Vantage, PaperVantagePoints) {
  const auto& points = paper_vantage_points();
  ASSERT_EQ(points.size(), 7u);  // 3 EC2 + 4 home devices
  int home = 0, dc = 0;
  for (const auto& vp : points) {
    (vp.is_home() ? home : dc)++;
  }
  EXPECT_EQ(home, 4);
  EXPECT_EQ(dc, 3);
}

TEST(Vantage, LookupById) {
  const VantagePoint& ohio = vantage_by_id("ec2-ohio");
  EXPECT_EQ(ohio.continent, Continent::NorthAmerica);
  EXPECT_FALSE(ohio.is_home());
  const VantagePoint& home = vantage_by_id("home-chicago-2");
  EXPECT_TRUE(home.is_home());
  EXPECT_THROW((void)vantage_by_id("ec2-mars"), std::out_of_range);
}

TEST(Vantage, Ec2RegionsMatchPaper) {
  EXPECT_EQ(vantage_by_id("ec2-frankfurt").continent, Continent::Europe);
  EXPECT_EQ(vantage_by_id("ec2-seoul").continent, Continent::Asia);
}

}  // namespace
}  // namespace ednsm::geo
