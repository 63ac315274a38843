// AvailabilityLedger: the bookkeeping behind the paper's availability
// analysis — "we received 5,098,281 successful responses and 311,351 errors.
// The most common errors ... were related to a failure to establish a
// connection", and the per-vantage unresponsiveness definition: "a resolver
// is unresponsive from a given vantage point if we fail to receive any
// response to the queries issued from a particular server."
//
// record() sits on the campaign accumulation hot path (once per query
// record), so counters are keyed by interned symbols rather than strings:
// one hash of a packed u64 instead of pair<string,string> key construction
// and byte-wise compares per record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/intern.h"
#include "core/spec.h"

namespace ednsm::core {

struct AvailabilityCounts {
  std::uint64_t successes = 0;
  std::uint64_t errors = 0;
  std::map<std::string, std::uint64_t> errors_by_class;

  [[nodiscard]] std::uint64_t total() const noexcept { return successes + errors; }
  [[nodiscard]] double error_rate() const noexcept {
    return total() == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(total());
  }
};

class AvailabilityLedger {
 public:
  void record(const ResultRecord& r);

  [[nodiscard]] const AvailabilityCounts& overall() const noexcept { return overall_; }
  [[nodiscard]] AvailabilityCounts per_resolver(const std::string& hostname) const;
  [[nodiscard]] AvailabilityCounts per_pair(const std::string& vantage,
                                            const std::string& hostname) const;

  // The paper's unresponsiveness predicate.
  [[nodiscard]] bool unresponsive_from(const std::string& vantage,
                                       const std::string& hostname) const;

  // Most common error class overall ("" when there are no errors).
  [[nodiscard]] std::string dominant_error_class() const;

 private:
  util::InternTable vantages_;
  util::InternTable hostnames_;
  AvailabilityCounts overall_;
  std::unordered_map<util::InternTable::Symbol, AvailabilityCounts> by_resolver_;
  std::unordered_map<std::uint64_t, AvailabilityCounts> by_pair_;
};

}  // namespace ednsm::core
