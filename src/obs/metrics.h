// Metrics registry: named counters and distributions keyed by
// interned symbols (the core/availability convention — one dense u32 per
// name, assigned in first-registration order, so identical workloads produce
// identical tables).
//
// Names follow "subsystem.metric" (e.g. "netsim.datagrams_dropped",
// "transport.pool_reused"). Hot paths hold a Counter handle (a symbol) and
// bump by index; cold paths use the string-keyed convenience overloads.
// Distributions reuse stats/welford for moments and stats/histogram for
// quantiles. merge() combines shard registries by name, so the merged dump is
// independent of shard execution order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/intern.h"
#include "util/json.h"
#include "stats/histogram.h"
#include "stats/welford.h"

namespace ednsm::obs {

class Metrics {
 public:
  using Key = util::InternTable::Symbol;

  // Distribution bins: 1 ms resolution to 2 s, overflow above — sized for
  // per-query latencies under the paper's 5 s timeout.
  static constexpr double kBinWidthMs = 1.0;
  static constexpr std::size_t kBins = 2000;

  // -- counters ---------------------------------------------------------------
  [[nodiscard]] Key counter_key(std::string_view name);
  void add(Key counter, std::uint64_t delta = 1) { counters_[counter] += delta; }
  void add(std::string_view name, std::uint64_t delta = 1) { add(counter_key(name), delta); }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  // -- distributions ----------------------------------------------------------
  [[nodiscard]] Key distribution_key(std::string_view name);
  void observe(Key distribution, double value);
  void observe(std::string_view name, double value) { observe(distribution_key(name), value); }
  // ednsm-lint: allow(hygiene-dead-function) — Metrics.CountersGaugesDistributions and the
  // Metrics.Merge* tests read a distribution's moments.
  [[nodiscard]] const stats::Welford* distribution(std::string_view name) const;

  // Combine another registry into this one by metric name (not symbol):
  // counters sum, distributions merge moments and bins.
  void merge(const Metrics& other);

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && dists_.empty();
  }

  // JSONL dump: one JSON object per line, sorted by (name, kind) so the
  // stream is deterministic regardless of registration order. Counters:
  // {"kind":"counter","name":...,"value":N}. Distributions:
  // {"kind":"distribution","name":...,"count":N,"mean":...,"stddev":...,
  // "min":...,"max":...,"p50":...,"p90":...,"p99":...}. Names are escaped
  // as JSON strings, so every line parses whatever the name holds.
  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string jsonl() const;

  // Exact (mergeable) JSON round trip, unlike the summary-only JSONL dump:
  // counters by name, distributions with their full Welford moments and
  // sparse histogram bins. The "gauges" array is always written empty (the
  // gauge kind is gone; files keep their layout) and a non-empty one is
  // rejected. This is what shard files embed so a
  // cross-process merge combines distributions exactly as an in-process merge
  // does. Entries are persisted in intern order, which from_json replays, so
  // symbol assignment survives the round trip byte-for-byte.
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<Metrics> from_json(const util::Json& j);

 private:
  struct Distribution {
    stats::Welford welford;
    stats::Histogram histogram{kBinWidthMs, kBins};
  };

  util::InternTable counter_names_;
  std::vector<std::uint64_t> counters_;
  util::InternTable dist_names_;
  std::vector<Distribution> dists_;
};

}  // namespace ednsm::obs
