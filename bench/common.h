// Shared harness for the reproduction benches: runs the paper's measurement
// campaign over the full Appendix A.2 registry and prints figures/tables in
// the paper's format. Each bench binary regenerates exactly one paper
// artifact (see DESIGN.md's experiment index).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "report/figures.h"
#include "resolver/registry.h"

namespace ednsm::bench {

inline constexpr std::uint64_t kDefaultSeed = 20250704;

// Campaign over every registry resolver from the given vantages, on the
// shard-per-vantage engine of core/parallel_campaign.h (one world per
// vantage, one worker thread; the output is the same for any thread count).
inline core::CampaignResult run_paper_campaign(const std::vector<std::string>& vantage_ids,
                                               int rounds,
                                               std::uint64_t seed = kDefaultSeed) {
  core::MeasurementSpec spec;
  for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  spec.vantage_ids = vantage_ids;
  spec.rounds = rounds;
  spec.seed = seed;

  // ednsm-lint: allow(determinism-wallclock) — harness-side wall timing of
  // the simulation; never feeds simulated results.
  const auto wall_start = std::chrono::steady_clock::now();
  core::CampaignResult result = core::run_parallel_campaign(spec);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           // ednsm-lint: allow(determinism-wallclock) — harness wall timing
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  // One expression in day units; the old form truncated microseconds->seconds
  // before multiplying, collapsing sub-second intervals to zero days.
  const double simulated_days =
      std::chrono::duration<double, std::ratio<86400>>(spec.round_interval * rounds).count();
  std::printf("# campaign: %zu resolvers x %zu vantages x %d rounds -> %zu queries, "
              "%zu pings (simulated %.1f days; wall %lld ms)\n\n",
              spec.resolvers.size(), vantage_ids.size(), rounds, result.records.size(),
              result.pings.size(), simulated_days, static_cast<long long>(wall_ms));
  return result;
}

inline void print_figure(const core::CampaignResult& result, const std::string& vantage_id,
                         geo::Continent continent, const std::string& title) {
  std::printf("%s\n", report::render_figure(result, vantage_id, continent, title).c_str());
}

}  // namespace ednsm::bench
