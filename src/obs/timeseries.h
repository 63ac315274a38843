// TimeSeries: a fixed-width-bucket metrics store for longitudinal runs.
//
// The paper's collection ran for months on Netrics; a single Metrics registry
// collapses that history into one aggregate. TimeSeries keeps one point per
// (metric, vantage, resolver, protocol, bucket) so the monitor can evaluate
// rolling SLO windows and locate outages at epoch granularity. Label strings
// are interned (the core/availability convention) so hot folds compare dense
// u32 symbols; persisted output is always re-sorted by the label *names*, so
// the serialized store is independent of intern order and shard count.
//
// Two point kinds: counters (sum) and histograms (welford moments +
// fixed-bin histogram, persisted exactly via m2/bins so codecs round-trip the
// accumulators bit-for-bit). Persistence is JSONL (header line + one
// SeriesPoint per line; written, never read back) and a compact binary format
// ("EDTS") with a canonical string table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/intern.h"
#include "util/json.h"
#include "stats/histogram.h"
#include "stats/welford.h"
#include "util/bytes.h"

namespace ednsm::obs {

// One persisted bucket sample — the codec-facing snapshot of a live point.
// `value` carries the counter total; `count`/`mean`/`m2`/`min`/`max`/`bins`
// carry the histogram accumulators (sparse nonzero bins).
struct SeriesPoint {
  std::string metric;
  std::string vantage;
  std::string resolver;
  std::string protocol;
  std::string kind;  // "counter" | "histogram"
  std::int64_t bucket = 0;
  double value = 0.0;
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> bins;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<SeriesPoint> from_json(const util::Json& j);
};

class TimeSeries {
 public:
  using Symbol = util::InternTable::Symbol;

  // Histogram layout: 8 ms resolution to ~2 s plus overflow — coarse enough
  // that a point costs ~2 KB, fine enough for p99 under the 5 s timeout.
  static constexpr double kHistBinWidthMs = 8.0;
  static constexpr std::size_t kHistBins = 256;
  static constexpr std::uint32_t kBinaryVersion = 1;

  explicit TimeSeries(std::int64_t bucket_width = 1)
      : bucket_width_(bucket_width > 0 ? bucket_width : 1) {}

  [[nodiscard]] std::int64_t bucket_width() const noexcept { return bucket_width_; }
  [[nodiscard]] std::int64_t bucket_of(std::int64_t t) const noexcept { return t / bucket_width_; }

  // -- writes (t is a raw time coordinate; the point lands in bucket_of(t)) --
  void add_counter(std::string_view metric, std::string_view vantage, std::string_view resolver,
                   std::string_view protocol, std::int64_t t, std::uint64_t delta = 1);
  void observe(std::string_view metric, std::string_view vantage, std::string_view resolver,
               std::string_view protocol, std::int64_t t, double value_ms);

  // -- reads (bucket index, not raw time) ------------------------------------
  [[nodiscard]] std::uint64_t counter_at(std::string_view metric, std::string_view vantage,
                                         std::string_view resolver, std::string_view protocol,
                                         std::int64_t bucket) const;
  // Welford moments for a histogram point; nullptr when the point is absent.
  // ednsm-lint: allow(hygiene-dead-function) — TimeSeries.CountersAndHistogramsByBucket reads one
  // bucket's moments.
  [[nodiscard]] const stats::Welford* dist_at(std::string_view metric, std::string_view vantage,
                                              std::string_view resolver, std::string_view protocol,
                                              std::int64_t bucket) const;
  // Approximate quantile for a histogram point; NaN when absent or empty.
  // ednsm-lint: allow(hygiene-dead-function) — TimeSeries.WindowQuantileMergesBuckets compares one
  // bucket's quantile with the window's.
  [[nodiscard]] double dist_quantile(std::string_view metric, std::string_view vantage,
                                     std::string_view resolver, std::string_view protocol,
                                     std::int64_t bucket, double q) const;
  // Merged quantile across an inclusive bucket window [from, to]; NaN when no
  // samples land in the window.
  [[nodiscard]] double window_quantile(std::string_view metric, std::string_view vantage,
                                       std::string_view resolver, std::string_view protocol,
                                       std::int64_t from, std::int64_t to, double q) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + dists_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  // Canonical listing, sorted by (metric, vantage, resolver, protocol, kind,
  // bucket) label *names* — identical for any intern/insert order.
  [[nodiscard]] std::vector<SeriesPoint> snapshot() const;
  // Fold one decoded point back in (counter adds, histogram merges);
  // rejects unknown kinds and out-of-range histogram bins.
  [[nodiscard]] Result<void> insert(const SeriesPoint& p);

  // JSONL: one header line ({"kind":"header",...}) then one point per line.
  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string jsonl() const;

  // Compact binary: "EDTS" magic, version, bucket width, canonical string
  // table, then symbol-referenced points in snapshot order.
  [[nodiscard]] util::Bytes to_binary() const;
  [[nodiscard]] static Result<TimeSeries> from_binary(const util::Bytes& bytes);

 private:
  struct PointKey {
    Symbol metric;
    Symbol vantage;
    Symbol resolver;
    Symbol protocol;
    std::int64_t bucket;
    auto operator<=>(const PointKey&) const = default;
  };
  struct Dist {
    stats::Welford welford;
    stats::Histogram histogram{kHistBinWidthMs, kHistBins};
  };

  [[nodiscard]] PointKey intern_key(std::string_view metric, std::string_view vantage,
                                    std::string_view resolver, std::string_view protocol,
                                    std::int64_t bucket);
  // Lookup without interning; false when any label was never seen.
  [[nodiscard]] bool find_key(std::string_view metric, std::string_view vantage,
                              std::string_view resolver, std::string_view protocol,
                              std::int64_t bucket, PointKey& out) const;

  std::int64_t bucket_width_;
  util::InternTable names_;  // shared across all four label dimensions
  // std::map keyed by symbols: deterministic iteration given deterministic
  // intern order; canonical outputs re-sort by name regardless.
  std::map<PointKey, std::uint64_t> counters_;
  std::map<PointKey, Dist> dists_;
};

}  // namespace ednsm::obs
