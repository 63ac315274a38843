// Rolling SLO evaluation over an obs::TimeSeries of monitor metrics.
//
// Each epoch produces one SloSample per (vantage, resolver, protocol): the
// epoch's own availability (crisp outage signal) plus a rolling window of
// `window_epochs` epochs for availability and latency quantiles, judged
// against per-tier thresholds (the registry's OperatorTier — hyperscalers
// are held to tighter targets than hobbyist deployments, mirroring the
// paper's tiering of operators).
//
// State semantics (documented in DESIGN.md "Longitudinal monitoring"):
//   outage    — the *epoch's* availability fell below `outage_availability`;
//               epoch-level so injected outages recover with exact bounds.
//   degraded  — the rolling *window* misses the tier's availability or
//               latency targets (an outage inside the window also degrades
//               the epochs whose window still contains it).
//   healthy   — everything else (including windows with no data).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "obs/timeseries.h"
#include "resolver/registry.h"

namespace ednsm::monitor {

// Metric names the monitor folds into the TimeSeries (bucket = epoch).
inline constexpr std::string_view kMetricQueries = "monitor.queries";
inline constexpr std::string_view kMetricFailures = "monitor.failures";
inline constexpr std::string_view kMetricResponseMs = "monitor.response_ms";

// Targets for one operator tier: a window is healthy when availability stays
// at or above `min_availability` and every quantile stays at or below its cap.
struct SloThresholds {
  double min_availability = 0.90;
  double max_p50_ms = 400.0;
  double max_p95_ms = 1500.0;
  double max_p99_ms = 4000.0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<SloThresholds> from_json(const util::Json& j);
};

struct SloConfig {
  int window_epochs = 3;             // rolling window length (>= 1)
  double outage_availability = 0.10; // epoch availability below this = outage
  int flap_transitions = 3;          // state changes at/above this = flap event
  SloThresholds hyperscale{0.99, 120.0, 500.0, 1200.0};
  SloThresholds managed{0.97, 250.0, 1000.0, 2500.0};
  SloThresholds hobbyist{0.90, 400.0, 1500.0, 4000.0};

  [[nodiscard]] const SloThresholds& for_tier(resolver::OperatorTier tier) const noexcept;
  // Thresholds for a hostname via the registry; unknown hostnames are judged
  // as hobbyist.
  [[nodiscard]] const SloThresholds& for_resolver(std::string_view hostname) const noexcept;

  [[nodiscard]] Result<void> validate() const;
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<SloConfig> from_json(const util::Json& j);
};

// One (vantage, resolver, protocol, epoch) evaluation.
struct SloSample {
  std::string vantage;
  std::string resolver;
  std::string protocol;
  int epoch = 0;
  std::uint64_t queries = 0;          // this epoch
  std::uint64_t failures = 0;         // this epoch
  double availability = 1.0;          // this epoch (1.0 when no data)
  std::uint64_t window_queries = 0;   // rolling window
  std::uint64_t window_failures = 0;
  double window_availability = 1.0;
  double p50_ms = 0.0;                // window quantiles; 0 when no successes
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::string state;                  // "healthy" | "degraded" | "outage"

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<SloSample> from_json(const util::Json& j);
};

// Evaluate every (vantage, resolver) pair for epochs [0, epochs), in
// (vantage, resolver, epoch) order. `series` buckets must be epoch indices.
[[nodiscard]] std::vector<SloSample> evaluate_slos(const obs::TimeSeries& series,
                                                   const SloConfig& config,
                                                   const std::vector<std::string>& vantage_ids,
                                                   const std::vector<std::string>& resolvers,
                                                   std::string_view protocol, int epochs);

}  // namespace ednsm::monitor
