// Staged-pipeline campaign engine.
//
// A multi-vantage campaign decomposes into independent shards — one SimWorld
// per vantage, seeded deterministically from the spec seed via splitmix64
// (see core/pipeline.h for the plan/outcome vocabulary) — that run with zero
// shared mutable state and merge in canonical (round, vantage, resolver)
// order. The output is a pure function of the spec: byte-identical JSON for
// any `threads` value, including 1, and for any `--shard k/N` process split
// merged by ednsm_merge.
//
// Execution is a ZDNS-style staged pipeline connected by SPSC rings
// (util/spsc_ring.h):
//
//   expansion ──rings──▶ simulation workers ──rings──▶ collector/encoder
//
// The expansion stage streams ShardPlans into per-worker task rings (striped
// round-robin, so each ring keeps a single producer and single consumer);
// workers simulate and push ShardOutcomes into their own outcome ring; the
// calling thread drains outcome rings as results complete, doing the
// per-shard encode work (round bucketing) concurrently with shards still
// simulating, and finally assembles the canonical merge (the sink stage).
//
// This is the only multi-vantage engine. Each vantage is measured as its own
// single-vantage campaign (CampaignRunner, the per-world kernel) in its own
// SimWorld — the faithful model of the paper's fleet of independent probing
// machines, each running its own copy of the tool.
#pragma once

#include <functional>

#include "core/pipeline.h"

namespace ednsm::core {

// Run `plans` through the expansion → simulation stages with up to `threads`
// workers (clamped to [1, #plans]), invoking `sink` on the calling thread
// once per completed plan, in completion order. This is the engine under
// run_parallel_campaign (sink = ShardCollector) and under `--shard` workers
// (sink = shard-file accumulation). Worker exceptions are rethrown on the
// caller after all stages drain; the sink may then have seen only a subset
// of outcomes.
void run_pipeline(const MeasurementSpec& spec, const std::vector<ShardPlan>& plans, int threads,
                  const CampaignObsOptions& obs_options,
                  const std::function<void(ShardOutcome&&)>& sink);

// Run `spec` sharded per vantage across at most `threads` worker threads.
// When `obs_options` enables tracing or metrics and `obs_out` is non-null,
// shard traces/metrics are merged into it deterministically; tracing never
// perturbs the simulation, so the returned CampaignResult is byte-identical
// either way. Throws std::invalid_argument on an invalid spec, and
// propagates the first shard exception otherwise.
[[nodiscard]] CampaignResult run_parallel_campaign(const MeasurementSpec& spec, int threads = 1,
                                                   const CampaignObsOptions& obs_options = {},
                                                   CampaignObsData* obs_out = nullptr);

}  // namespace ednsm::core
