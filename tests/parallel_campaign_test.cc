// Sharded parallel campaign engine: determinism across thread counts,
// canonical merge order, seed derivation, and the (vantage, resolver) sample
// index that replaces linear record rescans.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/parallel_campaign.h"
#include "obs/runtime.h"
#include "resolver/registry.h"
#include "util/fs.h"
#include "util/json.h"

namespace ednsm::core {
namespace {

MeasurementSpec paper_spec(int rounds) {
  MeasurementSpec spec;
  for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  spec.vantage_ids = {"home-chicago-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul"};
  spec.rounds = rounds;
  spec.seed = 20250704;
  return spec;
}

MeasurementSpec small_spec() {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net"};
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt", "home-chicago-1"};
  spec.rounds = 3;
  spec.seed = 99;
  return spec;
}

std::string dump(const CampaignResult& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

TEST(ParallelCampaign, ShardSeedsAreStableAndDistinct) {
  const auto a = shard_seeds(7, 4);
  const auto b = shard_seeds(7, 4);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
  }
  // Prefix property: growing the shard count never re-seeds earlier shards.
  const auto longer = shard_seeds(7, 8);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(longer[i], a[i]);
}

TEST(ParallelCampaign, ThreadCountNeverChangesPaperCampaignJson) {
  // The acceptance bar: --threads 4 output is byte-identical to --threads 1
  // for the paper campaign (full registry, the Fig. 2 vantage set), and for
  // the same campaign over DoQ with ticket resumption, whose connections and
  // tickets live in each shard world's pool.
  MeasurementSpec doq = paper_spec(/*rounds=*/2);
  doq.protocol = client::Protocol::DoQ;
  doq.query_options.reuse = transport::ReusePolicy::TicketResumption;
  for (const MeasurementSpec& spec : {paper_spec(/*rounds=*/2), doq}) {
    SCOPED_TRACE(client::to_string(spec.protocol));
    const std::string serial = dump(run_parallel_campaign(spec, 1));
    const std::string parallel = dump(run_parallel_campaign(spec, 4));
    EXPECT_EQ(serial, parallel);
    const std::string oversubscribed = dump(run_parallel_campaign(spec, 64));
    EXPECT_EQ(serial, oversubscribed);
  }
}

TEST(ParallelCampaign, MergeIsRoundMajorThenVantageInSpecOrder) {
  const MeasurementSpec spec = small_spec();
  const CampaignResult result = run_parallel_campaign(spec, 2);
  ASSERT_EQ(result.records.size(), 3u * 3u * 3u * 3u);  // rounds x vantages x resolvers x domains
  ASSERT_EQ(result.pings.size(), 3u * 3u * 3u);

  auto vantage_index = [&](const std::string& v) {
    for (std::size_t i = 0; i < spec.vantage_ids.size(); ++i) {
      if (spec.vantage_ids[i] == v) return i;
    }
    return spec.vantage_ids.size();
  };
  for (std::size_t i = 1; i < result.records.size(); ++i) {
    const auto& prev = result.records[i - 1];
    const auto& cur = result.records[i];
    const auto prev_key = std::make_pair(prev.round, vantage_index(prev.vantage));
    const auto cur_key = std::make_pair(cur.round, vantage_index(cur.vantage));
    EXPECT_LE(prev_key, cur_key) << "record " << i << " out of canonical order";
  }
}

TEST(ParallelCampaign, MergedLedgerMatchesRecords) {
  const CampaignResult result = run_parallel_campaign(small_spec(), 3);
  std::uint64_t ok = 0, bad = 0;
  for (const auto& r : result.records) (r.ok ? ok : bad)++;
  EXPECT_EQ(result.availability.overall().successes, ok);
  EXPECT_EQ(result.availability.overall().errors, bad);
}

TEST(ParallelCampaign, SpecIsPreservedVerbatim) {
  const MeasurementSpec spec = small_spec();
  const CampaignResult result = run_parallel_campaign(spec, 2);
  EXPECT_EQ(result.spec.to_json().dump(), spec.to_json().dump());
}

TEST(ParallelCampaign, MatchesSingleVantageLegacyRunPerShard) {
  // Shard semantics are *defined* as "each vantage is its own single-vantage
  // campaign under its derived seed": check one shard against the
  // per-world CampaignRunner kernel configured that way.
  const MeasurementSpec spec = small_spec();
  const auto seeds = shard_seeds(spec.seed, spec.vantage_ids.size());
  const CampaignResult merged = run_parallel_campaign(spec, 2);

  MeasurementSpec shard1 = spec;
  shard1.vantage_ids = {spec.vantage_ids[1]};
  shard1.seed = seeds[1];
  SimWorld world(shard1.seed);
  const CampaignResult solo = CampaignRunner(world, shard1).run();

  std::vector<const ResultRecord*> merged_v1;
  for (const auto& r : merged.records) {
    if (r.vantage == spec.vantage_ids[1]) merged_v1.push_back(&r);
  }
  ASSERT_EQ(merged_v1.size(), solo.records.size());
  for (std::size_t i = 0; i < solo.records.size(); ++i) {
    EXPECT_EQ(merged_v1[i]->resolver, solo.records[i].resolver);
    EXPECT_EQ(merged_v1[i]->domain, solo.records[i].domain);
    EXPECT_DOUBLE_EQ(merged_v1[i]->response_ms, solo.records[i].response_ms);
  }
}

TEST(ParallelCampaign, InvalidSpecThrows) {
  MeasurementSpec bad = small_spec();
  bad.rounds = 0;
  EXPECT_THROW((void)run_parallel_campaign(bad, 2), std::invalid_argument);
}

TEST(ParallelCampaign, UnknownVantagePropagatesFromWorkers) {
  // The campaign entry point rejects an unknown vantage up front...
  MeasurementSpec bad = small_spec();
  bad.vantage_ids = {"ec2-ohio", "not-a-vantage"};
  EXPECT_THROW((void)run_parallel_campaign(bad, 2), std::invalid_argument);

  // ...and a plan that reaches a worker anyway (the pipeline does not
  // validate) fails in that worker: the healthy shard still reaches the
  // sink, and the error is rethrown on the caller.
  const std::vector<ShardPlan> plans = expand_spec(bad);
  std::size_t sunk = 0;
  EXPECT_THROW(run_pipeline(bad, plans, 2, CampaignObsOptions{},
                            [&](ShardOutcome&&) { ++sunk; }),
               std::invalid_argument);
  EXPECT_EQ(sunk, 1u);
}

// Runtime telemetry sees every plan through each stage on both branches of
// run_pipeline (inline at threads 1, the pool at 3 and 8, where 8 is clamped
// to the five plans), and observing the run never changes its output.
TEST(ParallelCampaign, TelemetryCountsEveryPlanAtAnyThreadCount) {
  MeasurementSpec spec = small_spec();
  spec.vantage_ids = {"home-chicago-1", "home-chicago-2", "ec2-ohio", "ec2-frankfurt",
                      "ec2-seoul"};
  spec.rounds = 2;
  const std::string baseline = dump(run_parallel_campaign(spec, 1));
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::RuntimeTelemetry telemetry;
    telemetry.describe_run(spec_fingerprint(spec), 0, 1, threads);
    telemetry.begin_run(spec.vantage_ids.size());
    const std::string path = std::string(::testing::TempDir()) + "ednsm_pool_heartbeat_" +
                             std::to_string(threads) + ".json";
    obs::HeartbeatWriter heartbeat(path, telemetry);
    CampaignObsOptions obs;
    obs.runtime = &telemetry;
    obs.heartbeat = &heartbeat;
    EXPECT_EQ(dump(run_parallel_campaign(spec, threads, obs)), baseline);

    const obs::RuntimeHeartbeat h = telemetry.snapshot_runtime("done");
    ASSERT_EQ(h.stages.size(), 3u);
    for (const obs::RuntimeStageSnapshot& stage : h.stages) {
      EXPECT_EQ(stage.items_in, 5u) << stage.stage;
      EXPECT_EQ(stage.items_out, 5u) << stage.stage;
    }

    auto text = util::read_file(path);
    ASSERT_TRUE(text) << text.error();
    auto json = util::Json::parse(text.value());
    ASSERT_TRUE(json) << json.error();
    auto parsed = obs::RuntimeHeartbeat::heartbeat_from_json(json.value());
    EXPECT_TRUE(parsed) << parsed.error();
    std::remove(path.c_str());
  }
}

// ---- sample index -----------------------------------------------------------

TEST(PairSampleIndexTest, MatchesNaiveScan) {
  const CampaignResult result = run_parallel_campaign(small_spec(), 2);
  for (const std::string& v : result.spec.vantage_ids) {
    for (const std::string& host : result.spec.resolvers) {
      std::vector<double> naive_rt, naive_ping;
      for (const auto& r : result.records) {
        if (r.ok && r.vantage == v && r.resolver == host) naive_rt.push_back(r.response_ms);
      }
      for (const auto& p : result.pings) {
        if (p.ok && p.vantage == v && p.resolver == host) naive_ping.push_back(p.rtt_ms);
      }
      EXPECT_EQ(result.response_times(v, host), naive_rt) << v << "/" << host;
      EXPECT_EQ(result.ping_times(v, host), naive_ping) << v << "/" << host;
    }
  }
  EXPECT_TRUE(result.response_times("ec2-ohio", "no-such-resolver").empty());
  EXPECT_TRUE(result.response_times("no-such-vantage", "dns.google").empty());
}

TEST(PairSampleIndexTest, RebuildsAfterRecordsGrow) {
  CampaignResult result = run_parallel_campaign(small_spec(), 1);
  const std::size_t before = result.response_times("ec2-ohio", "dns.google").size();

  ResultRecord extra;
  extra.vantage = "ec2-ohio";
  extra.resolver = "dns.google";
  extra.domain = "example.com";
  extra.ok = true;
  extra.response_ms = 12.5;
  result.records.push_back(extra);
  const auto after = result.response_times("ec2-ohio", "dns.google");
  ASSERT_EQ(after.size(), before + 1);
  EXPECT_DOUBLE_EQ(after.back(), 12.5);
}

}  // namespace
}  // namespace ednsm::core
