// Prometheus text exposition (version 0.0.4) of a TimeSeries snapshot.
//
// The store keeps history per bucket; Prometheus wants a point-in-time
// scrape, so series collapse across buckets: counters sum (they are
// monotonic totals), histograms merge and export summary-style quantiles
// plus _sum/_count.
// Metric names are prefixed "ednsm_" and sanitized ('.', '-', '/' -> '_');
// output order is deterministic (metric name, then label set).
#pragma once

#include <string>
#include <vector>

#include "obs/runtime.h"
#include "obs/timeseries.h"

namespace ednsm::monitor {

[[nodiscard]] std::string to_prometheus(const obs::TimeSeries& series);

// Runtime-telemetry exposition: per-shard progress/throughput gauges and
// per-stage pipeline counters from a fleet of heartbeat snapshots (one per
// `--progress-file`; `ednsm_watch --prom` serves this). Labels: shard="k/n"
// plus stage=... on the per-stage series. This is the sanctioned wall-clock
// -> exporter path; the obs-domain-separation lint rule allows to_prometheus
// as a telemetry sink precisely so runtime gauges can be scraped.
//
// When stale_after_ms > 0 an ednsm_runtime_stale gauge is added per shard:
// 1 when a still-running shard's updated_unix_ms lags the fleet's newest
// heartbeat by more than the threshold (a wedged or dead worker whose
// counters froze), else 0. Staleness is judged against the fleet maximum,
// not a wall clock read here, so the exposition stays a pure function of
// the heartbeat set. Terminal shards ("done"/"failed") are never stale.
[[nodiscard]] std::string to_prometheus(const std::vector<obs::RuntimeHeartbeat>& fleet,
                                        std::uint64_t stale_after_ms = 0);

// Newest updated_unix_ms across the fleet (0 for an empty fleet) and the
// staleness predicate behind ednsm_runtime_stale — shared with ednsm_watch
// so the table's STALE flag and the gauge can never disagree.
[[nodiscard]] std::uint64_t fleet_latest_update_ms(
    const std::vector<obs::RuntimeHeartbeat>& fleet) noexcept;
[[nodiscard]] bool heartbeat_is_stale(const obs::RuntimeHeartbeat& h,
                                      std::uint64_t fleet_latest_ms,
                                      std::uint64_t stale_after_ms) noexcept;

}  // namespace ednsm::monitor
