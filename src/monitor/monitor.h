// Longitudinal monitor: run the same campaign spec over many epochs
// (simulated days), fold each epoch into an obs::TimeSeries keyed by
// (vantage, resolver, protocol) with the epoch index as the time bucket,
// evaluate rolling SLOs, and detect outage/degradation/flap events.
//
// Epoch e runs with seed splitmix64^e(base seed) (core::shard_seeds), so the
// whole run is a pure function of the spec: byte-identical series, SLO,
// event, and evidence output for any thread count. Scripted outages take a
// resolver fully offline for epochs [from_epoch, to_epoch) via the campaign
// fault-window hook, which is what the detection tests assert against.
//
// The same fold that feeds the series also records one obs::QueryEvidence
// row per query, persisted as the result's `evidence` array, so
// monitor/diagnose explains events from the stored rows without running any
// epoch again.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel_campaign.h"
#include "monitor/events.h"
#include "monitor/slo.h"
#include "obs/attribution.h"
#include "obs/timeseries.h"

namespace ednsm::monitor {

// One scripted resolver outage at epoch granularity (end exclusive).
struct OutageScript {
  std::string resolver;
  int from_epoch = 0;
  int to_epoch = 0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<OutageScript> from_json(const util::Json& j);
};

struct MonitorSpec {
  core::MeasurementSpec base;  // per-epoch campaign template
  int epochs = 8;
  std::vector<OutageScript> outages;
  SloConfig slo;

  [[nodiscard]] Result<void> validate() const;
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<MonitorSpec> from_json(const util::Json& j);
};

// Aggregate tallies for one epoch's campaign.
struct EpochSummary {
  int epoch = 0;
  std::uint64_t seed = 0;  // derived campaign seed for the epoch
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  double availability = 1.0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<EpochSummary> from_json(const util::Json& j);
};

struct MonitorResult {
  MonitorSpec spec;
  std::vector<EpochSummary> epochs;
  obs::TimeSeries series;
  std::vector<SloSample> slos;
  std::vector<MonitorEvent> events;
  // One row per query, in epoch order and, within an epoch, in the
  // campaign's record order. Epoch e holds exactly epochs[e].queries rows.
  std::vector<obs::QueryEvidence> evidence;

  [[nodiscard]] util::Json to_json() const;
  // A file without an `evidence` array loads with no rows (its series, SLOs
  // and events stay readable; diagnose_events rejects it). Rows must name an
  // epoch in [0, spec.epochs).
  [[nodiscard]] static Result<MonitorResult> from_json(const util::Json& j);
  // Both forms stream the to_json() layout followed by a newline; the sink
  // form hands the bytes over in chunks (e.g. to a util::AtomicFileWriter).
  void write_json(const std::function<void(std::string_view)>& sink, int indent = 0) const;
  void write_json(std::ostream& os, int indent = 0) const;
};

// Campaign spec for epoch `epoch`: the base spec with the epoch's derived
// seed and any scripted outages active at that epoch lowered to whole-epoch
// fault windows, exactly as run_monitor runs it.
[[nodiscard]] core::MeasurementSpec epoch_campaign_spec(const MonitorSpec& spec,
                                                        std::uint64_t epoch_seed, int epoch);

// Run the monitor: `threads` is the per-epoch ParallelCampaign worker count
// (epochs themselves run serially — each epoch's campaign is the parallel
// unit). Returns an error for an invalid spec.
[[nodiscard]] Result<MonitorResult> run_monitor(const MonitorSpec& spec, int threads);

// Re-derive SLO samples and events from an already-folded series (used by
// from_json and by tools that load a persisted series).
void evaluate_result(MonitorResult& result);

}  // namespace ednsm::monitor
