#include "core/availability.h"

namespace ednsm::core {

namespace {
void bump(AvailabilityCounts& c, const ResultRecord& r) {
  if (r.ok) {
    ++c.successes;
  } else {
    ++c.errors;
    ++c.errors_by_class[r.error_class.empty() ? "unknown" : r.error_class];
  }
}
}  // namespace

void AvailabilityLedger::record(const ResultRecord& r) {
  bump(overall_, r);
  const util::InternTable::Symbol host = hostnames_.intern(r.resolver);
  const util::InternTable::Symbol vantage = vantages_.intern(r.vantage);
  bump(by_resolver_[host], r);
  bump(by_pair_[util::InternTable::pair_key(vantage, host)], r);
}

AvailabilityCounts AvailabilityLedger::per_resolver(const std::string& hostname) const {
  const auto sym = hostnames_.find(hostname);
  if (!sym.has_value()) return {};
  const auto it = by_resolver_.find(*sym);
  return it == by_resolver_.end() ? AvailabilityCounts{} : it->second;
}

AvailabilityCounts AvailabilityLedger::per_pair(const std::string& vantage,
                                                const std::string& hostname) const {
  const auto v = vantages_.find(vantage);
  const auto h = hostnames_.find(hostname);
  if (!v.has_value() || !h.has_value()) return {};
  const auto it = by_pair_.find(util::InternTable::pair_key(*v, *h));
  return it == by_pair_.end() ? AvailabilityCounts{} : it->second;
}

bool AvailabilityLedger::unresponsive_from(const std::string& vantage,
                                           const std::string& hostname) const {
  const AvailabilityCounts c = per_pair(vantage, hostname);
  return c.total() > 0 && c.successes == 0;
}

std::string AvailabilityLedger::dominant_error_class() const {
  std::string best;
  std::uint64_t best_count = 0;
  for (const auto& [cls, count] : overall_.errors_by_class) {
    if (count > best_count) {
      best_count = count;
      best = cls;
    }
  }
  return best;
}

}  // namespace ednsm::core
