// Sharded campaign engine.
//
// A multi-vantage campaign decomposes into independent shards — one SimWorld
// per vantage, seeded deterministically from the spec seed via splitmix64
// (see core/pipeline.h for the plan/outcome vocabulary) — that run with zero
// shared mutable state and merge in canonical (round, vantage, resolver)
// order. The output is a pure function of the spec: byte-identical JSON for
// any `threads` value, including 1, and for any `--shard k/N` process split
// merged by ednsm_merge.
//
// Execution is a plain worker pool. With one worker the calling thread
// simulates and sinks each plan in turn. With W > 1 workers, worker w runs
// plans w, w + W, ... and appends each outcome to one mutex-guarded ready
// list; the calling thread collects — it waits on the list (waking at least
// every 100 ms to pump the heartbeat), hands each outcome to the sink as it
// arrives, doing the per-shard encode work (round bucketing) while other
// shards still simulate, and finally assembles the canonical merge.
//
// This is the only multi-vantage engine. Each vantage is measured as its own
// single-vantage campaign (CampaignRunner, the per-world kernel) in its own
// SimWorld — the faithful model of the paper's fleet of independent probing
// machines, each running its own copy of the tool.
#pragma once

#include <functional>

#include "core/pipeline.h"

namespace ednsm::core {

// Run `plans` on up to `threads` workers (clamped to [1, #plans]),
// invoking `sink` on the calling thread once per completed plan, in
// completion order. This is the engine under run_parallel_campaign (sink =
// ShardCollector) and under `--shard` workers (sink = shard-file
// accumulation). With several workers every plan runs even after one
// throws; the healthy outcomes still reach the sink, and once every worker
// has joined a sink exception is rethrown first, else the first worker
// exception. With one worker the first exception propagates at once.
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
