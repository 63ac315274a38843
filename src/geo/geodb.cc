#include "geo/geodb.h"

namespace ednsm::geo {

void GeoDb::add(std::string hostname, GeoRecord record) {
  records_[std::move(hostname)] = std::move(record);
}

std::optional<GeoRecord> GeoDb::lookup(std::string_view hostname) const {
  const auto it = records_.find(std::string(hostname));
  if (it == records_.end() || it->second.continent == Continent::Unknown) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace ednsm::geo
