#include "core/parallel_campaign.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/spsc_ring.h"

namespace ednsm::core {

namespace {

// Ring capacities. Task rings are deep enough that expansion runs ahead of
// simulation without stalling; outcome rings are shallow because outcomes
// are large (a full single-vantage result) and the collector drains eagerly.
constexpr std::size_t kTaskRingCapacity = 64;
constexpr std::size_t kOutcomeRingCapacity = 8;

}  // namespace

void run_pipeline(const MeasurementSpec& spec, const std::vector<ShardPlan>& plans, int threads,
                  const CampaignObsOptions& obs_options,
                  const std::function<void(ShardOutcome&&)>& sink) {
  if (plans.empty()) return;
  const std::size_t workers =
      std::min<std::size_t>(plans.size(), static_cast<std::size_t>(std::max(threads, 1)));

  // Runtime telemetry is observation-only: every hook below is a null check
  // plus relaxed atomics, and nothing it records feeds back into plan order,
  // ring behavior, or outcomes — outputs stay byte-identical with it on/off.
  obs::RuntimeTelemetry* const rt = obs_options.runtime;
  obs::HeartbeatWriter* const hb = obs_options.heartbeat;

  if (workers <= 1) {
    // Degenerate pipeline: all stages run inline on the calling thread, in
    // plan order — no rings, no pool overhead, same outcomes. Ring counters
    // stay zero (there are no rings); plan/sink progress is still reported.
    for (const ShardPlan& plan : plans) {
      const std::uint64_t t0 = rt != nullptr ? rt->clock_now_ns() : 0;
      ShardOutcome outcome = run_shard(spec, plan, obs_options);
      const std::uint64_t t1 = rt != nullptr ? rt->clock_now_ns() : 0;
      if (rt != nullptr) rt->note_plan_done(t1 - t0);
      sink(std::move(outcome));
      if (rt != nullptr) rt->note_sink_items(1, rt->clock_now_ns() - t1);
      if (hb != nullptr) hb->write_update();
    }
    return;
  }

  // One task ring and one outcome ring per worker. Plans are striped
  // round-robin (plan i → ring i % workers) so every ring keeps exactly one
  // producer (the expansion thread) and one consumer (its worker); likewise
  // each outcome ring has one producer (its worker) and one consumer (the
  // collector loop below). Outcomes travel as unique_ptr so a ring slot is
  // pointer-sized and hand-off is a move.
  using OutcomePtr = std::unique_ptr<ShardOutcome>;
  std::vector<std::unique_ptr<util::SpscRing<ShardPlan>>> task_rings;
  std::vector<std::unique_ptr<util::SpscRing<OutcomePtr>>> outcome_rings;
  task_rings.reserve(workers);
  outcome_rings.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    task_rings.push_back(std::make_unique<util::SpscRing<ShardPlan>>(kTaskRingCapacity));
    outcome_rings.push_back(std::make_unique<util::SpscRing<OutcomePtr>>(kOutcomeRingCapacity));
  }
  if (rt != nullptr) {
    // One stat sink per ring, attached before any pipeline thread starts.
    rt->configure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      task_rings[w]->attach_stats(rt->task_ring_stats(w));
      outcome_rings[w]->attach_stats(rt->outcome_ring_stats(w));
    }
  }

  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto record_error = [&] {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };

  // Stage 1: expansion. Streams plans into the task rings (blocking push =
  // backpressure against a deep backlog) and closes them to signal
  // end-of-stream.
  std::thread expansion([&] {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      task_rings[i % workers]->push(plans[i]);
    }
    for (auto& ring : task_rings) ring->close();
  });

  // Stage 2: simulation workers. Each drains its task ring to exhaustion —
  // even after an error, so the expansion stage can never block forever on a
  // full ring — and closes its outcome ring when done.
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      ShardPlan plan;
      while (task_rings[w]->pop(plan)) {
        try {
          const std::uint64_t t0 = rt != nullptr ? rt->clock_now_ns() : 0;
          auto outcome = std::make_unique<ShardOutcome>(run_shard(spec, plan, obs_options));
          if (rt != nullptr) rt->note_plan_done(rt->clock_now_ns() - t0);
          outcome_rings[w]->push(std::move(outcome));
        } catch (...) {
          record_error();
        }
      }
      outcome_rings[w]->close();
    });
  }

  // Stage 3: collect/encode on the calling thread, overlapping the sink's
  // per-shard work with shards still simulating. Polls the outcome rings
  // round-robin until every one is closed and drained. A sink exception
  // stops sinking but keeps draining, so workers never block on a full
  // outcome ring.
  std::exception_ptr sink_error;
  std::size_t open_rings = workers;
  while (open_rings > 0) {
    bool progressed = false;
    open_rings = 0;
    for (auto& ring : outcome_rings) {
      OutcomePtr outcome;
      while (ring->try_pop(outcome)) {
        progressed = true;
        if (!sink_error) {
          try {
            const std::uint64_t t0 = rt != nullptr ? rt->clock_now_ns() : 0;
            sink(std::move(*outcome));
            if (rt != nullptr) rt->note_sink_items(1, rt->clock_now_ns() - t0);
          } catch (...) {
            sink_error = std::current_exception();
          }
        }
        outcome.reset();
      }
      if (!ring->closed() || !ring->empty()) ++open_rings;
    }
    // Heartbeats are pumped whether or not outcomes arrived this pass, so a
    // stalled pipeline still reports (stale progress + fresh timestamp is
    // exactly the wedged-worker signal ednsm_watch surfaces).
    if (hb != nullptr) hb->write_update();
    if (!progressed && open_rings > 0) {
      if (rt != nullptr) rt->note_collector_idle_spin();
      std::this_thread::yield();
    }
  }

  expansion.join();
  for (std::thread& t : pool) t.join();
  if (sink_error) std::rethrow_exception(sink_error);
  if (first_error) std::rethrow_exception(first_error);
}

CampaignResult run_parallel_campaign(const MeasurementSpec& spec, int threads,
                                     const CampaignObsOptions& obs_options,
                                     CampaignObsData* obs_out) {
  if (auto v = spec.validate(); !v) {
    throw std::invalid_argument("run_parallel_campaign: invalid spec: " + v.error());
  }

  // Sim-domain observability (trace/metrics) is only collected when there is
  // somewhere to put it, so a call without `obs_out` pays nothing for it.
  // Runtime telemetry is independent of that: it has its own sink (the
  // RuntimeTelemetry hub) and survives the reset.
  CampaignObsOptions obs = obs_options;
  if (obs_out == nullptr) {
    obs = CampaignObsOptions{};
    obs.runtime = obs_options.runtime;
    obs.heartbeat = obs_options.heartbeat;
  }

  const std::vector<ShardPlan> plans = expand_spec(spec);
  ShardCollector collector(spec, plans.size(), obs);
  run_pipeline(spec, plans, threads, obs, [&](ShardOutcome&& outcome) {
    // The pipeline delivers each plan index exactly once, so add() cannot
    // fail here; surface a logic error loudly if that invariant breaks.
    if (auto added = collector.add(std::move(outcome)); !added) {
      throw std::logic_error("run_parallel_campaign: " + added.error());
    }
  });
  return collector.finish(obs_out);
}

}  // namespace ednsm::core
