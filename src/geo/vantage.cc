#include "geo/vantage.h"

#include <stdexcept>

#include "geo/geodb.h"

namespace ednsm::geo {

const std::vector<VantagePoint>& paper_vantage_points() {
  static const std::vector<VantagePoint> kPoints = [] {
    std::vector<VantagePoint> v;
    // Amazon EC2 t2.xlarge instances in us-east-2 (Ohio), eu-central-1
    // (Frankfurt) and ap-northeast-2 (Seoul).
    v.push_back({"ec2-ohio", city::kColumbusOhio, Continent::NorthAmerica,
                 AccessProfile::Datacenter});
    v.push_back({"ec2-frankfurt", city::kFrankfurt, Continent::Europe, AccessProfile::Datacenter});
    v.push_back({"ec2-seoul", city::kSeoul, Continent::Asia, AccessProfile::Datacenter});
    // Raspberry Pis in four units of one Chicagoland apartment complex.
    for (int unit = 1; unit <= 4; ++unit) {
      v.push_back({"home-chicago-" + std::to_string(unit), city::kChicago,
                   Continent::NorthAmerica, AccessProfile::Residential});
    }
    return v;
  }();
  return kPoints;
}

const VantagePoint& vantage_by_id(std::string_view id) {
  for (const VantagePoint& vp : paper_vantage_points()) {
    if (vp.id == id) return vp;
  }
  throw std::out_of_range("unknown vantage point id: " + std::string(id));
}

}  // namespace ednsm::geo
