// Event detection over SLO samples: collapse per-epoch states into typed
// events with exact start/end epochs.
//
// Taxonomy (DESIGN.md "Longitudinal monitoring"):
//   outage      — a maximal run of consecutive "outage" epochs for one
//                 (vantage, resolver, protocol); start/end are the first and
//                 last epoch of the run (inclusive).
//   degradation — likewise for consecutive "degraded" epochs.
//   flap        — the pair's state changed at least `flap_transitions` times
//                 across the run; start/end bracket the first and last
//                 transition. Emitted in addition to the underlying events.
#pragma once

#include <string>
#include <vector>

#include "util/json.h"
#include "monitor/slo.h"

namespace ednsm::monitor {

struct MonitorEvent {
  std::string type;  // "outage" | "degradation" | "flap"
  std::string vantage;
  std::string resolver;
  std::string protocol;
  int start_epoch = 0;
  int end_epoch = 0;    // inclusive
  int transitions = 0;  // flap events: number of state changes observed

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<MonitorEvent> from_json(const util::Json& j);
};

// Detect events from samples produced by evaluate_slos (grouped by
// (vantage, resolver, protocol) with ascending epochs inside each group).
// Output is sorted by (vantage, resolver, protocol, start_epoch, type).
[[nodiscard]] std::vector<MonitorEvent> detect_events(const std::vector<SloSample>& samples,
                                                      const SloConfig& config);

// Serialize a list of events as a JSON array (the `ednsm_monitor events`
// payload and the CI smoke job's golden format).
[[nodiscard]] util::Json events_to_json(const std::vector<MonitorEvent>& events);

}  // namespace ednsm::monitor
