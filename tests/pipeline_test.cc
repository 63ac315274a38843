// Pipeline vocabulary and the deterministic-merge contract: spec expansion,
// --shard k/N slicing (including the edge topologies the ISSUE calls out:
// empty vantage list, N greater than the plan count, the k = N-1 remainder
// slice, and merges containing empty shards), the ShardCollector merge, and
// the shard-file round trip that carries outcomes across processes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "core/shard_io.h"
#include "util/bytes.h"

namespace ednsm::core {
namespace {

MeasurementSpec small_spec() {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net"};
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt", "home-chicago-1"};
  spec.rounds = 2;
  spec.seed = 20260808;
  return spec;
}

std::string dump(const CampaignResult& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

TEST(Pipeline, SliceParseAcceptsWellFormed) {
  const auto s = ShardSlice::parse("2/4");
  ASSERT_TRUE(s.has_value()) << s.error();
  EXPECT_EQ(s.value().k, 2u);
  EXPECT_EQ(s.value().n, 4u);
  EXPECT_TRUE(s.value().valid());
  const auto solo = ShardSlice::parse("0/1");
  ASSERT_TRUE(solo.has_value()) << solo.error();
  EXPECT_EQ(solo.value().k, 0u);
  EXPECT_EQ(solo.value().n, 1u);
}

TEST(Pipeline, SliceParseRejectsMalformed) {
  for (const char* bad : {"", "3", "/4", "3/", "a/4", "3/b", "3/4/5", "4/4", "5/4", "1/0",
                          "-1/4", "1/-4", "1/4x", "0/99999999999999999999",
                          "99999999999999999999/1"}) {
    EXPECT_FALSE(ShardSlice::parse(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(Pipeline, SliceBoundsBalancedContiguousPartition) {
  // 10 plans over 4 slices: base 2 with the first 10%4=2 slices taking one
  // extra -> sizes {3, 3, 2, 2}, contiguous and exhaustive.
  const std::size_t expected_sizes[] = {3, 3, 2, 2};
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const SliceBounds b = slice_bounds(10, {k, 4});
    EXPECT_EQ(b.begin, cursor) << "slice " << k;
    EXPECT_EQ(b.count(), expected_sizes[k]) << "slice " << k;
    cursor = b.end;
  }
  EXPECT_EQ(cursor, 10u);
}

TEST(Pipeline, SliceBoundsRemainderLandsOnEarlySlicesNotLast) {
  // k = N-1 gets the *base* share; the remainder never piles onto the tail.
  const SliceBounds last = slice_bounds(10, {3, 4});
  EXPECT_EQ(last.count(), 10u / 4u);
  const SliceBounds first = slice_bounds(10, {0, 4});
  EXPECT_EQ(first.count(), 10u / 4u + 1u);
}

TEST(Pipeline, SliceBoundsMoreShardsThanPlansYieldsEmptySlices) {
  // N > plan count is legal: the surplus slices are empty, not an error.
  std::size_t total = 0;
  for (std::size_t k = 0; k < 7; ++k) {
    const SliceBounds b = slice_bounds(3, {k, 7});
    EXPECT_LE(b.begin, b.end);
    if (k >= 3) {
      EXPECT_EQ(b.count(), 0u) << "slice " << k;
    }
    total += b.count();
  }
  EXPECT_EQ(total, 3u);
  // Degenerate but well-defined: zero plans means every slice is empty.
  EXPECT_EQ(slice_bounds(0, {0, 4}).count(), 0u);
}

TEST(Pipeline, ExpandSpecEmptyVantageListIsEmpty) {
  MeasurementSpec spec = small_spec();
  spec.vantage_ids.clear();
  EXPECT_TRUE(expand_spec(spec).empty());
}

TEST(Pipeline, ExpandSpecPreservesOrderAndDerivesSeeds) {
  const MeasurementSpec spec = small_spec();
  const auto plans = expand_spec(spec);
  const auto seeds = shard_seeds(spec.seed, spec.vantage_ids.size());
  ASSERT_EQ(plans.size(), spec.vantage_ids.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].index, i);
    EXPECT_EQ(plans[i].vantage, spec.vantage_ids[i]);
    EXPECT_EQ(plans[i].seed, seeds[i]);
  }
}

TEST(Pipeline, SlicePlansKeepsGlobalIndices) {
  const auto plans = expand_spec(small_spec());
  const auto mine = slice_plans(plans, {1, 2});  // second half
  const SliceBounds b = slice_bounds(plans.size(), {1, 2});
  ASSERT_EQ(mine.size(), b.count());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].index, b.begin + i);
    EXPECT_EQ(mine[i].vantage, plans[b.begin + i].vantage);
  }
}

TEST(Pipeline, SpecFingerprintSeparatesSpecs) {
  const MeasurementSpec a = small_spec();
  MeasurementSpec b = a;
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
  b.seed += 1;
  EXPECT_NE(spec_fingerprint(a), spec_fingerprint(b));
  MeasurementSpec c = a;
  c.vantage_ids.pop_back();
  EXPECT_NE(spec_fingerprint(a), spec_fingerprint(c));
}

TEST(Pipeline, CollectorRejectsOutOfRangeAndDuplicateIndices) {
  const MeasurementSpec spec = small_spec();
  const auto plans = expand_spec(spec);
  ShardCollector collector(spec, plans.size(), {});
  auto first = run_shard(spec, plans[0], {});
  ShardOutcome bad = first;
  bad.index = plans.size();  // out of range
  EXPECT_FALSE(collector.add(std::move(bad)).has_value());
  ASSERT_TRUE(collector.add(std::move(first)).has_value());
  auto again = run_shard(spec, plans[0], {});
  EXPECT_FALSE(collector.add(std::move(again)).has_value());  // duplicate
  EXPECT_EQ(collector.collected(), 1u);
  EXPECT_FALSE(collector.complete());
}

TEST(Pipeline, CollectorArrivalOrderNeverChangesTheMerge) {
  const MeasurementSpec spec = small_spec();
  const std::string reference = dump(run_parallel_campaign(spec, 1));
  const auto plans = expand_spec(spec);
  ShardCollector collector(spec, plans.size(), {});
  for (auto it = plans.rbegin(); it != plans.rend(); ++it) {  // reverse arrival
    ASSERT_TRUE(collector.add(run_shard(spec, *it, {})).has_value());
  }
  ASSERT_TRUE(collector.complete());
  EXPECT_EQ(dump(collector.finish(nullptr)), reference);
}

// The tentpole guarantee, at the unit level: simulate every `--shard k/N`
// process of several topologies (including one with more shards than plans,
// so some "processes" contribute nothing) and merge through ShardCollector —
// results, trace, and metrics must be byte-identical to the unsharded run.
TEST(Pipeline, AnyShardTopologyMergesByteIdentical) {
  const MeasurementSpec spec = small_spec();
  CampaignObsOptions obs;
  obs.trace = true;
  obs.metrics = true;
  CampaignObsData ref_obs;
  const std::string reference = dump(run_parallel_campaign(spec, 1, obs, &ref_obs));
  const auto plans = expand_spec(spec);

  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, plans.size() + 3}) {
    ShardCollector collector(spec, plans.size(), obs);
    for (std::size_t k = 0; k < n; ++k) {
      // Each slice is one simulated worker process.
      for (const ShardPlan& plan : slice_plans(plans, {k, n})) {
        ASSERT_TRUE(collector.add(run_shard(spec, plan, obs)).has_value());
      }
    }
    ASSERT_TRUE(collector.complete()) << "topology n=" << n;
    CampaignObsData merged_obs;
    EXPECT_EQ(dump(collector.finish(&merged_obs)), reference) << "topology n=" << n;
    EXPECT_EQ(merged_obs.trace.chrome_json(), ref_obs.trace.chrome_json()) << "n=" << n;
    EXPECT_EQ(merged_obs.metrics.jsonl(), ref_obs.metrics.jsonl()) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Shard-file round trip and corruption rejection.
// ---------------------------------------------------------------------------

TEST(ShardIo, HexRoundTrip) {
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeef},
                                ~std::uint64_t{0}}) {
    const std::string hex = util::u64_to_hex(v);
    EXPECT_EQ(hex.size(), 16u);
    const auto back = util::u64_from_hex(hex);
    ASSERT_TRUE(back.has_value()) << hex;
    EXPECT_EQ(back.value(), v);
  }
  EXPECT_FALSE(util::u64_from_hex("").has_value());
  EXPECT_FALSE(util::u64_from_hex("123").has_value());             // wrong width
  EXPECT_FALSE(util::u64_from_hex("00000000000000zz").has_value());  // non-hex
}

ShardFile make_shard_file(const MeasurementSpec& spec, const ShardSlice& slice,
                          const CampaignObsOptions& obs) {
  const auto plans = expand_spec(spec);
  ShardFile file;
  file.spec = spec;
  file.slice = slice;
  file.total_shards = plans.size();
  file.has_trace = obs.trace;
  file.has_metrics = obs.metrics;
  for (const ShardPlan& plan : slice_plans(plans, slice)) {
    file.outcomes.push_back(run_shard(spec, plan, obs));
  }
  return file;
}

TEST(ShardIo, JsonRoundTripIsExact) {
  CampaignObsOptions obs;
  obs.trace = true;
  obs.metrics = true;
  const ShardFile file = make_shard_file(small_spec(), {1, 2}, obs);
  const auto reloaded = ShardFile::from_json(file.to_json());
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error();
  EXPECT_EQ(reloaded.value().to_json().dump(2), file.to_json().dump(2));
}

TEST(ShardIo, EmptySliceRoundTrips) {
  // A shard beyond the plan count carries zero outcomes but stays valid —
  // that is what lets N > #vantages topologies merge.
  const MeasurementSpec spec = small_spec();
  const ShardFile file = make_shard_file(spec, {5, 7}, {});
  EXPECT_TRUE(file.outcomes.empty());
  const auto reloaded = ShardFile::from_json(file.to_json());
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error();
  EXPECT_TRUE(reloaded.value().validate().has_value());
}

TEST(ShardIo, FromJsonRejectsTampering) {
  const ShardFile file = make_shard_file(small_spec(), {0, 2}, {});
  {
    util::Json j = file.to_json();
    j.as_object()["magic"] = "not-a-shard";
    EXPECT_FALSE(ShardFile::from_json(j).has_value());
  }
  {
    util::Json j = file.to_json();
    j.as_object()["version"] = ShardFile::kVersion + 1;
    EXPECT_FALSE(ShardFile::from_json(j).has_value());
  }
  {
    util::Json j = file.to_json();
    j.as_object()["spec_fingerprint"] = util::u64_to_hex(0);  // fingerprint/spec mismatch
    EXPECT_FALSE(ShardFile::from_json(j).has_value());
  }
  {
    util::Json j = file.to_json();
    j.as_object()["total_shards"] = 99;  // inconsistent with the embedded spec
    EXPECT_FALSE(ShardFile::from_json(j).has_value());
  }
  {
    util::Json j = file.to_json();
    j.as_object()["slice"].as_object()["k"] = 9;  // k >= n
    EXPECT_FALSE(ShardFile::from_json(j).has_value());
  }
  {
    util::Json j = file.to_json();
    // Drop one outcome: the file no longer covers its slice.
    j.as_object()["outcomes"].as_array().pop_back();
    EXPECT_FALSE(ShardFile::from_json(j).has_value());
  }
}

TEST(ShardIo, WriteLoadRoundTripAndTruncationRejected) {
  const std::string path = testing::TempDir() + "/ednsm_shard_io_test.json";
  const ShardFile file = make_shard_file(small_spec(), {1, 3}, {});
  ASSERT_TRUE(file.write(path).has_value());
  const auto loaded = ShardFile::load(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded.value().to_json().dump(2), file.to_json().dump(2));

  // Truncate the file: load must reject, never half-parse.
  const std::string full = file.to_json().dump(2);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << full.substr(0, full.size() / 2);
  out.close();
  EXPECT_FALSE(ShardFile::load(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ednsm::core
