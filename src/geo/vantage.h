// Vantage points: where measurements are issued from.
//
// The paper measures from four Raspberry Pi devices in one Chicago-area
// apartment complex (home networks, via residential broadband) and three
// Amazon EC2 regions (Ohio us-east-2, Frankfurt eu-central-1, Seoul
// ap-northeast-2). Access-network characteristics differ sharply between the
// two classes, which the paper leans on in §4; AccessProfile captures that.
#pragma once

#include <string>
#include <vector>

#include "geo/coords.h"

namespace ednsm::geo {

enum class AccessProfile {
  Datacenter,   // EC2: negligible last-mile latency, low jitter
  Residential,  // cable/DOCSIS: ~5-15 ms last mile, bursty cross-traffic jitter
};

struct VantagePoint {
  std::string id;  // "ec2-ohio", "home-chicago-1", ...
  GeoPoint location;
  Continent continent = Continent::Unknown;
  AccessProfile access = AccessProfile::Datacenter;

  [[nodiscard]] bool is_home() const noexcept { return access == AccessProfile::Residential; }
};

// The paper's seven vantage points.
[[nodiscard]] const std::vector<VantagePoint>& paper_vantage_points();

// Lookup by id; throws std::out_of_range for unknown ids (caller bug).
[[nodiscard]] const VantagePoint& vantage_by_id(std::string_view id);

// Canonical ids used across benches and examples.
inline constexpr std::string_view kVantageOhio = "ec2-ohio";
inline constexpr std::string_view kVantageFrankfurt = "ec2-frankfurt";
inline constexpr std::string_view kVantageSeoul = "ec2-seoul";
inline constexpr std::string_view kVantageHome1 = "home-chicago-1";

}  // namespace ednsm::geo
