#include <gtest/gtest.h>

#include <cmath>

#include "netsim/rng.h"
#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/quantile.h"
#include "stats/welford.h"

namespace ednsm::stats {
namespace {

// ---- quantiles -----------------------------------------------------------------

TEST(Quantile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Quantile, SingleValue) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 1.0), 7.0);
}

TEST(Quantile, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Quantile, Type7Interpolation) {
  // NumPy: np.quantile([1,2,3,4], 0.25) == 1.75
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.75), 3.25);
}

TEST(Quantile, ExtremesAreMinMax) {
  EXPECT_DOUBLE_EQ(quantile({5, 9, 1, 7}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({5, 9, 1, 7}, 1.0), 9.0);
}

TEST(Quantile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5.0);
}

class QuantileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotone, NonDecreasingInQ) {
  netsim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs(101);
  for (auto& x : xs) x = rng.lognormal(2.0, 1.0);
  double prev = -1;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = quantile(xs, q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone, ::testing::Range(1, 8));

// ---- box summary ---------------------------------------------------------------

TEST(BoxSummary, EmptyIsZeroCount) {
  const BoxSummary s = box_summary({});
  EXPECT_EQ(s.count, 0u);
}

TEST(BoxSummary, FiveNumbers) {
  const BoxSummary s = box_summary({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(s.count, 9u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 9);
  EXPECT_DOUBLE_EQ(s.median, 5);
  EXPECT_DOUBLE_EQ(s.q1, 3);
  EXPECT_DOUBLE_EQ(s.q3, 7);
  EXPECT_TRUE(s.outliers.empty());
  EXPECT_DOUBLE_EQ(s.whisker_low, 1);
  EXPECT_DOUBLE_EQ(s.whisker_high, 9);
}

TEST(BoxSummary, OutliersBeyondTukeyFences) {
  std::vector<double> xs = {10, 11, 12, 13, 14, 15, 16, 100};
  const BoxSummary s = box_summary(xs);
  ASSERT_EQ(s.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(s.outliers[0], 100);
  EXPECT_LT(s.whisker_high, 100);
}

TEST(BoxSummary, WhiskersClampToData) {
  const BoxSummary s = box_summary({1, 2, 3});
  EXPECT_GE(s.whisker_low, 1);
  EXPECT_LE(s.whisker_high, 3);
}

// ---- Welford -------------------------------------------------------------------

TEST(Welford, MeanVariance) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SingleValueVarianceZero) {
  Welford w;
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(Welford, MergeEqualsSequential) {
  Welford all, a, b;
  netsim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5, 2);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmpty) {
  Welford a, empty;
  a.add(1);
  a.add(2);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(Welford, FromMomentsRoundTripsAccumulators) {
  Welford w;
  netsim::Rng rng(11);
  for (int i = 0; i < 257; ++i) w.add(rng.normal(40, 12));
  const Welford back = Welford::from_moments(w.count(), w.mean(), w.m2(), w.min(), w.max());
  EXPECT_EQ(back.count(), w.count());
  EXPECT_DOUBLE_EQ(back.mean(), w.mean());
  EXPECT_DOUBLE_EQ(back.m2(), w.m2());
  EXPECT_DOUBLE_EQ(back.variance(), w.variance());
  EXPECT_DOUBLE_EQ(back.min(), w.min());
  EXPECT_DOUBLE_EQ(back.max(), w.max());
  // A reconstructed accumulator keeps accepting samples.
  Welford grown = back;
  grown.add(w.mean());
  EXPECT_EQ(grown.count(), w.count() + 1);
}

// ---- histogram ------------------------------------------------------------------

TEST(Histogram, BinPlacement) {
  Histogram h(10.0, 5);
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(49.9);
  h.add(1000.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[1], 1u);
  EXPECT_EQ(h.bins()[4], 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, NegativeClampsToZeroBin) {
  Histogram h(1.0, 4);
  h.add(-5.0);
  EXPECT_EQ(h.bins()[0], 1u);
}

TEST(Histogram, ApproxQuantileReasonable) {
  Histogram h(1.0, 200);
  netsim::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    const double x = 100 * rng.next_double();
    xs.push_back(x);
    h.add(x);
  }
  EXPECT_NEAR(h.approx_quantile(0.5), median(xs), 1.5);
  EXPECT_NEAR(h.approx_quantile(0.9), quantile(xs, 0.9), 1.5);
}

TEST(Histogram, EmptyQuantileIsNaN) {
  Histogram h(1.0, 10);
  EXPECT_TRUE(std::isnan(h.approx_quantile(0.5)));
}

TEST(Histogram, MergeWithZeroSampleSide) {
  // Merging an empty histogram must be an identity on both sides: shard
  // merges routinely combine a populated histogram with one whose vantage
  // recorded no samples.
  Histogram populated(10.0, 5);
  populated.add(5.0);
  populated.add(25.0);
  Histogram empty(10.0, 5);

  ASSERT_TRUE(populated.merge(empty));
  EXPECT_EQ(populated.count(), 2u);
  EXPECT_EQ(populated.bins()[0], 1u);
  EXPECT_EQ(populated.bins()[2], 1u);

  Histogram target(10.0, 5);
  ASSERT_TRUE(target.merge(populated));
  EXPECT_EQ(target.count(), 2u);
  EXPECT_NEAR(target.approx_quantile(0.5), populated.approx_quantile(0.5), 1e-9);

  Histogram a(10.0, 5), b(10.0, 5);
  ASSERT_TRUE(a.merge(b));  // both empty stays empty
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(std::isnan(a.approx_quantile(0.5)));

  // Shape mismatches are still rejected, empty or not.
  Histogram narrow(10.0, 3);
  EXPECT_FALSE(populated.merge(narrow));
}

TEST(Histogram, AddCountBulkLoadsBins) {
  Histogram h(10.0, 5);
  ASSERT_TRUE(h.add_count(0, 3));
  ASSERT_TRUE(h.add_count(5, 2));  // overflow bin index == bins count
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bins()[0], 3u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_FALSE(h.add_count(6, 1));  // out of range: no-op
  EXPECT_EQ(h.count(), 5u);

  // Bulk-load round-trips the sample-by-sample path.
  Histogram direct(10.0, 5);
  direct.add(5.0);
  direct.add(5.0);
  direct.add(1000.0);
  Histogram loaded(10.0, 5);
  for (std::size_t i = 0; i < direct.bins().size(); ++i) {
    ASSERT_TRUE(loaded.add_count(i, direct.bins()[i]));
  }
  EXPECT_EQ(loaded.bins(), direct.bins());
  EXPECT_EQ(loaded.count(), direct.count());
}

// ---- correlation ----------------------------------------------------------------

TEST(Correlation, PearsonPerfectLinear) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {3, 6, 9, 12, 15};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> neg = {15, 12, 9, 6, 3};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Correlation, PearsonDegenerateCases) {
  EXPECT_TRUE(std::isnan(pearson({}, {})));
  EXPECT_TRUE(std::isnan(pearson({1}, {2})));
  EXPECT_TRUE(std::isnan(pearson({1, 1, 1}, {1, 2, 3})));  // constant series
}

TEST(Correlation, PearsonUncorrelatedNearZero) {
  netsim::Rng rng(3);
  std::vector<double> x(5000), y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_double();
    y[i] = rng.next_double();
  }
  EXPECT_LT(std::abs(pearson(x, y)), 0.05);
}

TEST(Correlation, RanksHandleTies) {
  const auto r = ranks({10, 20, 20, 30});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Correlation, SpearmanMonotoneNonlinear) {
  // y = x^3 is monotone but nonlinear: Spearman 1.0, Pearson < 1.
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(static_cast<double>(i) * i * i);
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 0.999);
}

TEST(Correlation, LinearFitRecoversModel) {
  netsim::Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 2000; ++i) {
    const double xi = 100 * rng.next_double();
    x.push_back(xi);
    y.push_back(3.0 * xi + 7.0 + rng.normal(0, 0.5));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_NEAR(fit.intercept, 7.0, 0.5);
  EXPECT_GT(fit.r_squared, 0.999);
  EXPECT_EQ(fit.n, 2000u);
}

TEST(Correlation, LinearFitDegenerate) {
  const LinearFit empty = linear_fit({}, {});
  EXPECT_EQ(empty.n, 0u);
  const LinearFit vertical = linear_fit({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(vertical.slope, 0.0);  // refuses to divide by zero
}

}  // namespace
}  // namespace ednsm::stats
