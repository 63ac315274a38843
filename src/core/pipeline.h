// Building blocks of the sharded campaign engine: plans, outcomes and the
// one merge.
//
// A campaign is decomposed into a deterministic plan list (expand_spec): one
// ShardPlan per vantage, carrying its splitmix64-derived seed and its global
// index. Plans are the unit of work everywhere — the in-process engine hands
// them to its worker pool (see parallel_campaign.h), and `--shard k/N`
// slices the *same* list across processes (slice_plans), so a multi-process
// run simulates exactly the shards a single process would.
//
// ShardCollector is the single merge implementation: the in-process pipeline
// sinks outcomes into it incrementally (encode overlaps simulation), and
// ednsm_merge feeds it shard-file outcomes. Both paths therefore produce the
// canonical (round-major, vantage-in-spec-order) result byte-for-byte,
// extending the "byte-identical for any --threads" guarantee to any
// processes × threads split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "obs/trace.h"

namespace ednsm::core {

// What to observe during a sharded campaign. Everything defaults off, so a
// default-constructed value observes nothing and costs nothing.
struct CampaignObsOptions {
  bool trace = false;  // enable each shard world's Tracer
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;  // ring slots/shard
  bool metrics = false;  // collect sim + result counters/distributions
  // Wall-clock runtime telemetry hub (progress heartbeats, run manifests);
  // nullptr = off. Unlike trace/metrics this lives in the *other* clock
  // domain — it observes the pipeline machinery, never the simulation — so
  // enabling it cannot change any deterministic output (see DESIGN.md
  // "Runtime telemetry and clock domains").
  obs::RuntimeTelemetry* runtime = nullptr;
  // Periodic progress-file writer, pumped by run_pipeline on the calling
  // thread: after each shard with one worker, on every collector wake (at
  // least every 100 ms) with more. Rate-limited internally; nullptr = off.
  obs::HeartbeatWriter* heartbeat = nullptr;
};

// Where the observations land. Shard traces are appended in spec vantage
// order (label "vantage/<id>"), shard metrics merge by name — both therefore
// independent of thread count and shard completion order.
struct CampaignObsData {
  obs::MergedTrace trace;
  obs::Metrics metrics;
};

// Fold the merged campaign outcome into `m`: record/ping counts, failure
// stage and error-class breakdowns, and response-time distributions. Operates
// on the merged (canonical-order) result, so the numbers are the same for any
// thread count.
void collect_result_metrics(const CampaignResult& result, obs::Metrics& m);

// Successive splitmix64 outputs seeded from `spec_seed`: shard i of n gets
// seeds[i]. Stable across thread counts and shard execution order.
[[nodiscard]] std::vector<std::uint64_t> shard_seeds(std::uint64_t spec_seed, std::size_t n);

// One unit of simulation work: vantage `vantage` (at position `index` in
// spec.vantage_ids) measured as its own single-vantage campaign under `seed`.
struct ShardPlan {
  std::size_t index = 0;  // global shard index == position in spec.vantage_ids
  std::string vantage;
  std::uint64_t seed = 0;
};

// The full, canonically ordered plan list for `spec`: one plan per vantage in
// spec order, seeds from shard_seeds(spec.seed, n). Does not validate the
// spec — an empty vantage list expands to an empty plan list.
[[nodiscard]] std::vector<ShardPlan> expand_spec(const MeasurementSpec& spec);

// A `--shard k/N` slice: this process is shard k of n (0-based k < n).
struct ShardSlice {
  std::size_t k = 0;
  std::size_t n = 1;

  [[nodiscard]] bool valid() const noexcept { return n >= 1 && k < n; }

  // Parse "k/N" (e.g. "2/4"). Errors on malformed input or k >= N.
  [[nodiscard]] static Result<ShardSlice> parse(const std::string& text);
};

// Contiguous balanced partition of `total` plans: slice k of n covers
// [begin, end) with base = total/n plans plus one extra for the first
// total%n slices. Slices beyond the plan count are empty, so n > total is
// legal (those processes simply contribute empty shard files).
struct SliceBounds {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t count() const noexcept { return end - begin; }
};
[[nodiscard]] SliceBounds slice_bounds(std::size_t total, const ShardSlice& slice);

// The sub-list of plans this slice owns (global indices preserved).
[[nodiscard]] std::vector<ShardPlan> slice_plans(const std::vector<ShardPlan>& plans,
                                                 const ShardSlice& slice);

// FNV-1a fingerprint of the spec's canonical JSON — written into shard files
// and checked by the merge so shards from different specs cannot be combined.
[[nodiscard]] std::uint64_t spec_fingerprint(const MeasurementSpec& spec);

// One completed plan: the single-vantage result plus (optionally) that
// world's drained trace and collected sim metrics. This is what a worker
// hands the collector and what shard files persist.
struct ShardOutcome {
  std::size_t index = 0;
  std::string vantage;
  std::uint64_t seed = 0;
  CampaignResult result;
  obs::TraceData trace;   // populated only when obs.trace
  obs::Metrics metrics;   // populated only when obs.metrics
};

// Simulate one plan: a fresh SimWorld seeded with plan.seed, holding only
// the spec's resolvers, runs the single-vantage spec. Pure function of
// (spec, plan, obs) — never touches shared state, so any worker on any
// process may run it.
[[nodiscard]] ShardOutcome run_shard(const MeasurementSpec& spec, const ShardPlan& plan,
                                     const CampaignObsOptions& obs);

// Accumulates outcomes (any arrival order, each global index exactly once)
// and assembles the canonical merged result. add() does the per-shard encode
// work (round bucketing) immediately, which is how the in-process pipeline
// overlaps encoding with simulation still in flight.
class ShardCollector {
 public:
  ShardCollector(MeasurementSpec spec, std::size_t shard_count,
                 CampaignObsOptions obs_options);

  // Errors on an out-of-range or duplicate index (merge-tool input
  // validation); the in-process pipeline cannot trigger either.
  [[nodiscard]] Result<void> add(ShardOutcome outcome);

  [[nodiscard]] std::size_t collected() const noexcept { return collected_; }
  [[nodiscard]] std::size_t expected() const noexcept { return seen_.size(); }
  [[nodiscard]] bool complete() const noexcept { return collected_ == seen_.size(); }

  // Canonical assembly: records/pings in (round, vantage-in-spec-order)
  // order, availability folded in that order, traces appended in spec
  // vantage order, metrics merged in shard-index order, result metrics
  // folded last. Call once, after every expected shard was added.
  [[nodiscard]] CampaignResult finish(CampaignObsData* obs_out);

 private:
  MeasurementSpec spec_;
  CampaignObsOptions obs_;
  std::vector<std::vector<std::vector<ResultRecord>>> records_by_shard_;
  std::vector<std::vector<std::vector<PingRecord>>> pings_by_shard_;
  std::vector<obs::TraceData> traces_;
  std::vector<obs::Metrics> metrics_;
  std::vector<bool> seen_;
  std::size_t total_records_ = 0;
  std::size_t total_pings_ = 0;
  std::size_t collected_ = 0;
};

}  // namespace ednsm::core
