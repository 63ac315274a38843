// GeoDb: an offline stand-in for MaxMind GeoLite2.
//
// The paper geolocates each resolver with GeoLite2 and groups them by
// continent ("18 in North America, 13 in Asia, 33 in Europe; 6 resolvers were
// unable to return a location"). This database maps hostnames to records with
// city / country / continent / coordinates, and supports the "no location"
// outcome via lookup() returning nullopt.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/coords.h"

namespace ednsm::geo {

struct GeoRecord {
  std::string city;
  Continent continent = Continent::Unknown;
  GeoPoint point;
};

class GeoDb {
 public:
  // Register or replace a record.
  void add(std::string hostname, GeoRecord record);

  // MaxMind-style lookup; nullopt models "unable to return a location".
  [[nodiscard]] std::optional<GeoRecord> lookup(std::string_view hostname) const;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  std::unordered_map<std::string, GeoRecord> records_;
};

// Well-known city coordinates used by the registry and the vantage catalog.
namespace city {
// North America
inline constexpr GeoPoint kChicago{41.88, -87.63};
inline constexpr GeoPoint kColumbusOhio{39.96, -83.00};
inline constexpr GeoPoint kAshburn{39.04, -77.49};
inline constexpr GeoPoint kNewYork{40.71, -74.01};
inline constexpr GeoPoint kDallas{32.78, -96.80};
inline constexpr GeoPoint kLosAngeles{34.05, -118.24};
inline constexpr GeoPoint kSanFrancisco{37.77, -122.42};
inline constexpr GeoPoint kSeattle{47.61, -122.33};
inline constexpr GeoPoint kToronto{43.65, -79.38};
inline constexpr GeoPoint kMiami{25.76, -80.19};
inline constexpr GeoPoint kFremont{37.55, -121.99};
// Europe
inline constexpr GeoPoint kFrankfurt{50.11, 8.68};
inline constexpr GeoPoint kAmsterdam{52.37, 4.90};
inline constexpr GeoPoint kLondon{51.51, -0.13};
inline constexpr GeoPoint kParis{48.86, 2.35};
inline constexpr GeoPoint kStockholm{59.33, 18.07};
inline constexpr GeoPoint kZurich{47.38, 8.54};
inline constexpr GeoPoint kMunich{48.14, 11.58};
inline constexpr GeoPoint kBerlin{52.52, 13.41};
inline constexpr GeoPoint kVienna{48.21, 16.37};
inline constexpr GeoPoint kHelsinki{60.17, 24.94};
inline constexpr GeoPoint kOslo{59.91, 10.75};
inline constexpr GeoPoint kCopenhagen{55.68, 12.57};
inline constexpr GeoPoint kLuxembourg{49.61, 6.13};
inline constexpr GeoPoint kAthens{37.98, 23.73};
inline constexpr GeoPoint kMadrid{40.42, -3.70};
inline constexpr GeoPoint kWarsaw{52.23, 21.01};
inline constexpr GeoPoint kReykjavik{64.15, -21.94};
// Asia
inline constexpr GeoPoint kSeoul{37.57, 126.98};
inline constexpr GeoPoint kTokyo{35.68, 139.69};
inline constexpr GeoPoint kSingapore{1.35, 103.82};
inline constexpr GeoPoint kHongKong{22.32, 114.17};
inline constexpr GeoPoint kTaipei{25.03, 121.57};
inline constexpr GeoPoint kBeijing{39.90, 116.41};
inline constexpr GeoPoint kHangzhou{30.27, 120.16};
inline constexpr GeoPoint kJakarta{-6.21, 106.85};
inline constexpr GeoPoint kMumbai{19.08, 72.88};
// Oceania
inline constexpr GeoPoint kSydney{-33.87, 151.21};
inline constexpr GeoPoint kPerth{-31.95, 115.86};
inline constexpr GeoPoint kAdelaide{-34.93, 138.60};
}  // namespace city

}  // namespace ednsm::geo
