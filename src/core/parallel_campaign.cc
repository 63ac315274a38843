#include "core/parallel_campaign.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace ednsm::core {

namespace {

// How long the collector sleeps with nothing ready before it wakes anyway to
// pump the heartbeat (HeartbeatWriter rate-limits the writes themselves).
constexpr std::chrono::milliseconds kCollectorWake{100};

// What a worker hands the collector for one plan: the outcome, or the
// exception the plan threw.
struct Finished {
  ShardOutcome outcome;
  std::exception_ptr error;
};

}  // namespace

void run_pipeline(const MeasurementSpec& spec, const std::vector<ShardPlan>& plans, int threads,
                  const CampaignObsOptions& obs_options,
                  const std::function<void(ShardOutcome&&)>& sink) {
  if (plans.empty()) return;
  const std::size_t workers =
      std::min<std::size_t>(plans.size(), static_cast<std::size_t>(std::max(threads, 1)));

  // Runtime telemetry is observation-only: every hook below is a null check
  // plus relaxed atomics, and nothing it records feeds back into plan order
  // or outcomes — outputs stay byte-identical with it on/off.
  obs::RuntimeTelemetry* const rt = obs_options.runtime;
  obs::HeartbeatWriter* const hb = obs_options.heartbeat;

  const auto simulate = [&](const ShardPlan& plan) {
    if (rt == nullptr) return run_shard(spec, plan, obs_options);
    rt->note_plan_started();
    const std::uint64_t t0 = rt->clock_now_ns();
    ShardOutcome outcome = run_shard(spec, plan, obs_options);
    rt->note_plan_done(rt->clock_now_ns() - t0);
    return outcome;
  };
  const auto sink_one = [&](ShardOutcome&& outcome) {
    const std::uint64_t t0 = rt != nullptr ? rt->clock_now_ns() : 0;
    sink(std::move(outcome));
    if (rt != nullptr) rt->note_sink_items(1, rt->clock_now_ns() - t0);
  };

  if (workers == 1) {
    // One worker: simulate and sink inline on the calling thread, in plan
    // order, so the heartbeat advances only between shards.
    for (const ShardPlan& plan : plans) {
      sink_one(simulate(plan));
      if (hb != nullptr) hb->write_update();
    }
    return;
  }

  // Worker w runs plans w, w + workers, ... and appends each result to the
  // ready list. Every plan runs, even after another one threw. The list and
  // the collector's batch each have room for every plan, so an append never
  // reallocates under the lock.
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::vector<Finished> ready;  // guarded by mutex
  std::vector<Finished> batch;  // the collector's side of the swap
  ready.reserve(plans.size());
  batch.reserve(plans.size());
  std::exception_ptr sink_error;
  std::exception_ptr first_error;
  {
    // std::jthread joins on destruction, so every way out of this block,
    // a failed thread start included, joins the workers before the data
    // they use goes away.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < plans.size(); i += workers) {
          Finished finished;
          try {
            finished.outcome = simulate(plans[i]);
          } catch (...) {
            finished.error = std::current_exception();
          }
          {
            const std::lock_guard<std::mutex> lock(mutex);
            ready.push_back(std::move(finished));
          }
          ready_cv.notify_one();
        }
      });
    }

    // The calling thread collects: it takes the whole ready list on each
    // wake and sinks the outcomes in arrival order. After a sink error it
    // keeps taking (and dropping) results until every plan has reported.
    for (std::size_t reported = 0; reported < plans.size();) {
      const std::uint64_t t0 = rt != nullptr ? rt->clock_now_ns() : 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready_cv.wait_for(lock, kCollectorWake, [&] { return !ready.empty(); });
        batch.swap(ready);
      }
      if (rt != nullptr) rt->note_collector_wake(batch.size(), rt->clock_now_ns() - t0);
      reported += batch.size();
      for (Finished& finished : batch) {
        if (finished.error) {
          if (!first_error) first_error = finished.error;
        } else if (!sink_error) {
          try {
            sink_one(std::move(finished.outcome));
          } catch (...) {
            sink_error = std::current_exception();
          }
        }
      }
      batch.clear();
      if (hb != nullptr) hb->write_update();
    }
  }
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
