// Fixed-bin latency histogram with log-ish resolution, for distribution
// summaries without retaining every sample.
#pragma once

#include <cstdint>
#include <vector>

namespace ednsm::stats {

class Histogram {
 public:
  // Bins: [0, width), [width, 2*width), ... up to `bins`*width, plus an
  // overflow bin.
  Histogram(double bin_width_ms, std::size_t bins);

  void add(double value_ms) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  // ednsm-lint: allow(hygiene-dead-function) — Histogram.BinPlacement and
  // Histogram.AddCountBulkLoadsBins check the overflow bin.
  [[nodiscard]] std::uint64_t overflow() const noexcept { return counts_.back(); }
  [[nodiscard]] const std::vector<std::uint64_t>& bins() const noexcept { return counts_; }

  // Approximate quantile by bin interpolation (NaN when empty).
  [[nodiscard]] double approx_quantile(double q) const noexcept;

  // Element-wise combination of another histogram with the same bin layout
  // (width and count); histograms shaped differently are rejected (no-op
  // returning false) rather than silently mis-binned.
  bool merge(const Histogram& other) noexcept;

  // Bulk-load `count` samples directly into bin `bin` (the last bin is the
  // overflow bin) — the codec-side inverse of reading bins(). Returns false
  // (no-op) when `bin` is out of range.
  bool add_count(std::size_t bin, std::uint64_t count) noexcept;

 private:
  double width_;
  std::vector<std::uint64_t> counts_;  // last element = overflow
  std::uint64_t total_ = 0;
};

}  // namespace ednsm::stats
