// Runtime telemetry (src/obs/runtime.h): heartbeat/manifest codecs, the
// strict validators trace_check --heartbeat relies on, snapshot math under
// injected fake clocks, straggler detection, the campaign fold, and the
// crash-safe HeartbeatWriter. Everything here runs with deterministic clocks
// — the only wall-clock reads happen in production defaults, not in tests.
#include "obs/runtime.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace ednsm::obs {
namespace {

// Injectable fake clocks: tests set the globals, the telemetry reads them
// through plain function pointers (the ClockNs/ClockMs contract).
std::uint64_t g_fake_ns = 0;
std::uint64_t g_fake_ms = 0;
std::uint64_t fake_ns() { return g_fake_ns; }
std::uint64_t fake_ms() { return g_fake_ms; }

RuntimeHeartbeat sample_heartbeat() {
  RuntimeHeartbeat h;
  h.status = "running";
  h.spec_fingerprint = 0xdeadbeefcafef00dull;
  h.shard_k = 2;
  h.shard_n = 4;
  h.threads = 8;
  h.started_unix_ms = 1000;
  h.updated_unix_ms = 3500;
  h.elapsed_ms = 2500.0;
  h.plans_total = 40;
  h.plans_done = 10;
  h.collector_lag = 2;
  h.records = 120;
  h.bytes_encoded = 4096;
  h.completion = 0.25;
  h.plans_per_sec = 4.0;
  h.eta_ms = 7500.0;
  RuntimeStageSnapshot s;
  s.stage = "simulate";
  s.items_in = 12;
  s.items_out = 10;
  s.stall_spins = 3;
  s.stall_ns = 900;
  s.busy_ns = 1000000;
  s.max_queue_depth = 7;
  h.stages.push_back(s);
  return h;
}

RunManifest sample_manifest() {
  RunManifest m;
  m.spec_fingerprint = 0x0123456789abcdefull;
  m.seed = 42;
  m.shard_k = 1;
  m.shard_n = 4;
  m.total_shards = 40;
  m.plans = 10;
  m.threads = 4;
  m.status = "ok";
  m.started_unix_ms = 1000;
  m.finished_unix_ms = 6000;
  m.wall_ms = 5000.0;
  m.records = 300;
  m.pings = 30;
  m.bytes_encoded = 8192;
  RuntimeStageSnapshot s;
  s.stage = "collect";
  s.items_in = 10;
  s.items_out = 10;
  m.stages.push_back(s);
  return m;
}

TEST(RuntimeCodec, HeartbeatRoundTrip) {
  const RuntimeHeartbeat h = sample_heartbeat();
  auto parsed = RuntimeHeartbeat::heartbeat_from_json(h.heartbeat_json());
  ASSERT_TRUE(parsed) << parsed.error();
  const RuntimeHeartbeat& r = parsed.value();
  EXPECT_EQ(r.status, "running");
  EXPECT_EQ(r.spec_fingerprint, 0xdeadbeefcafef00dull);
  EXPECT_EQ(r.shard_k, 2u);
  EXPECT_EQ(r.shard_n, 4u);
  EXPECT_EQ(r.threads, 8);
  EXPECT_EQ(r.started_unix_ms, 1000u);
  EXPECT_EQ(r.updated_unix_ms, 3500u);
  EXPECT_DOUBLE_EQ(r.elapsed_ms, 2500.0);
  EXPECT_EQ(r.plans_total, 40u);
  EXPECT_EQ(r.plans_done, 10u);
  EXPECT_EQ(r.collector_lag, 2u);
  EXPECT_EQ(r.records, 120u);
  EXPECT_EQ(r.bytes_encoded, 4096u);
  EXPECT_DOUBLE_EQ(r.completion, 0.25);
  EXPECT_DOUBLE_EQ(r.plans_per_sec, 4.0);
  EXPECT_DOUBLE_EQ(r.eta_ms, 7500.0);
  ASSERT_EQ(r.stages.size(), 1u);
  EXPECT_EQ(r.stages[0].stage, "simulate");
  EXPECT_EQ(r.stages[0].items_in, 12u);
  EXPECT_EQ(r.stages[0].max_queue_depth, 7u);
}

TEST(RuntimeCodec, ManifestRoundTrip) {
  const RunManifest m = sample_manifest();
  auto parsed = RunManifest::manifest_from_json(m.manifest_json());
  ASSERT_TRUE(parsed) << parsed.error();
  const RunManifest& r = parsed.value();
  EXPECT_EQ(r.spec_fingerprint, 0x0123456789abcdefull);
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.shard_k, 1u);
  EXPECT_EQ(r.shard_n, 4u);
  EXPECT_EQ(r.total_shards, 40u);
  EXPECT_EQ(r.plans, 10u);
  EXPECT_EQ(r.status, "ok");
  EXPECT_DOUBLE_EQ(r.wall_ms, 5000.0);
  EXPECT_EQ(r.pings, 30u);
  ASSERT_EQ(r.stages.size(), 1u);
  EXPECT_EQ(r.stages[0].stage, "collect");
}

// Strict validation: each mutation of a valid document must be rejected with
// an error naming the offending field — this is the trace_check --heartbeat
// contract.
TEST(RuntimeCodec, HeartbeatValidationRejectsBadDocuments) {
  const util::Json good = sample_heartbeat().heartbeat_json();
  struct Case {
    const char* field;
    util::Json value;
    const char* expect;  // substring of the error
  };
  auto mutate = [&](const char* field, util::Json value) {
    util::JsonObject o = good.as_object();
    o[field] = std::move(value);
    return util::Json(std::move(o));
  };
  const std::vector<Case> cases = {
      {"schema", util::Json(std::string("wrong")), "schema"},
      {"version", util::Json(99), "version"},
      {"status", util::Json(std::string("jogging")), "status"},
      {"spec_fingerprint", util::Json(std::string("xyz")), "spec_fingerprint"},
      {"plans_done", util::Json(41), "plans_done exceeds plans_total"},
      {"completion", util::Json(1.5), "completion"},
      {"updated_unix_ms", util::Json(10), "earlier than started"},
      {"stages", util::Json(std::string("nope")), "stages"},
  };
  for (const Case& c : cases) {
    auto parsed = RuntimeHeartbeat::heartbeat_from_json(mutate(c.field, c.value));
    ASSERT_FALSE(parsed) << "mutation of " << c.field << " was accepted";
    EXPECT_NE(parsed.error().find(c.expect), std::string::npos)
        << c.field << ": " << parsed.error();
  }
  // Bad shard split: k >= n.
  util::JsonObject o = good.as_object();
  util::JsonObject shard;
  shard["k"] = util::Json(4);
  shard["n"] = util::Json(4);
  o["shard"] = util::Json(std::move(shard));
  auto parsed = RuntimeHeartbeat::heartbeat_from_json(util::Json(std::move(o)));
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error().find("0 <= k < n"), std::string::npos) << parsed.error();
}

TEST(RuntimeCodec, ManifestValidationRejectsBadDocuments) {
  const util::Json good = sample_manifest().manifest_json();
  auto mutate = [&](const char* field, util::Json value) {
    util::JsonObject o = good.as_object();
    o[field] = std::move(value);
    return util::Json(std::move(o));
  };
  struct Case {
    const char* field;
    util::Json value;
    const char* expect;
  };
  const std::vector<Case> cases = {
      {"schema", util::Json(std::string("ednsm-heartbeat")), "schema"},
      {"status", util::Json(std::string("meh")), "status"},
      {"seed", util::Json(12), "seed"},
      {"plans", util::Json(41), "plans exceeds total_shards"},
      {"finished_unix_ms", util::Json(10), "earlier than started"},
      {"wall_ms", util::Json(-1), "wall_ms"},
  };
  for (const Case& c : cases) {
    auto parsed = RunManifest::manifest_from_json(mutate(c.field, c.value));
    ASSERT_FALSE(parsed) << "mutation of " << c.field << " was accepted";
    EXPECT_NE(parsed.error().find(c.expect), std::string::npos)
        << c.field << ": " << parsed.error();
  }
}

TEST(RuntimeTelemetryTest, SnapshotMathUnderFakeClocks) {
  g_fake_ns = 1;  // nonzero so "never written" sentinels don't alias
  g_fake_ms = 50000;
  RuntimeTelemetry t(&fake_ns, &fake_ms);
  t.describe_run(0xabcull, 1, 4, 2);
  t.begin_run(8);

  // 2 wall seconds pass; 4 of 8 plans complete; 3 reach the sink.
  g_fake_ns += 2000000000ull;
  g_fake_ms += 2000;
  for (int i = 0; i < 4; ++i) t.note_plan_done(100000000ull);  // 0.1 s busy each
  t.note_sink_items(3, 50000000ull);
  t.note_collector_wake(0, 7000ull);  // a wake with nothing ready
  t.note_records(60);
  t.note_bytes_encoded(2048);

  const RuntimeHeartbeat h = t.snapshot_runtime("running");
  EXPECT_EQ(h.spec_fingerprint, 0xabcull);
  EXPECT_EQ(h.shard_k, 1u);
  EXPECT_EQ(h.shard_n, 4u);
  EXPECT_EQ(h.threads, 2);
  EXPECT_EQ(h.started_unix_ms, 50000u);
  EXPECT_EQ(h.updated_unix_ms, 52000u);
  EXPECT_DOUBLE_EQ(h.elapsed_ms, 2000.0);
  EXPECT_EQ(h.plans_total, 8u);
  EXPECT_EQ(h.plans_done, 4u);
  EXPECT_EQ(h.collector_lag, 1u);  // 4 done - 3 sunk
  EXPECT_EQ(h.records, 60u);
  EXPECT_EQ(h.bytes_encoded, 2048u);
  EXPECT_DOUBLE_EQ(h.completion, 0.5);
  EXPECT_DOUBLE_EQ(h.plans_per_sec, 2.0);  // 4 plans / 2 s
  EXPECT_DOUBLE_EQ(h.eta_ms, 2000.0);      // half done after 2 s -> 2 s left

  ASSERT_EQ(h.stages.size(), 3u);
  EXPECT_EQ(h.stages[0].stage, "expand");
  EXPECT_EQ(h.stages[0].items_in, 8u);
  EXPECT_EQ(h.stages[1].stage, "simulate");
  EXPECT_EQ(h.stages[1].items_out, 4u);
  EXPECT_EQ(h.stages[1].busy_ns, 400000000ull);
  EXPECT_EQ(h.stages[2].stage, "collect");
  EXPECT_EQ(h.stages[2].items_out, 3u);
  EXPECT_EQ(h.stages[2].busy_ns, 50000000ull);
  EXPECT_EQ(h.stages[2].stall_spins, 1u);
  EXPECT_EQ(h.stages[2].stall_ns, 7000u);

  // The snapshot round-trips through its own codec (what --progress-file
  // writes is exactly what ednsm_watch parses).
  auto parsed = RuntimeHeartbeat::heartbeat_from_json(h.heartbeat_json());
  ASSERT_TRUE(parsed) << parsed.error();
  EXPECT_EQ(parsed.value().plans_done, 4u);
}

// Every stage field the pool fills, with exact counts; the fields nothing
// fills read 0. Plans are counted without clamping to plans_total.
TEST(RuntimeTelemetryTest, PoolStageCounters) {
  g_fake_ns = 1;
  g_fake_ms = 1;
  RuntimeTelemetry t(&fake_ns, &fake_ms);
  t.begin_run(4);

  // Six plans start (more than begin_run announced), five finish, four are
  // sunk; the collector wakes three times: with 3 ready, idle, with 2 ready.
  for (int i = 0; i < 6; ++i) t.note_plan_started();
  for (int i = 0; i < 5; ++i) t.note_plan_done(1000ull);
  t.note_collector_wake(3, 40ull);
  t.note_collector_wake(0, 100ull);
  t.note_collector_wake(2, 60ull);
  t.note_sink_items(1, 10ull);
  t.note_sink_items(3, 20ull);

  const RuntimeHeartbeat h = t.snapshot_runtime("running");
  ASSERT_EQ(h.stages.size(), 3u);
  const RuntimeStageSnapshot& expand = h.stages[0];
  const RuntimeStageSnapshot& simulate = h.stages[1];
  const RuntimeStageSnapshot& collect = h.stages[2];
  EXPECT_EQ(expand.stage, "expand");
  EXPECT_EQ(expand.items_in, 4u);  // plans_total
  EXPECT_EQ(expand.items_out, 6u);
  EXPECT_EQ(expand.stall_spins, 0u);
  EXPECT_EQ(expand.stall_ns, 0u);
  EXPECT_EQ(expand.busy_ns, 0u);
  EXPECT_EQ(expand.max_queue_depth, 0u);
  EXPECT_EQ(simulate.stage, "simulate");
  EXPECT_EQ(simulate.items_in, 6u);
  EXPECT_EQ(simulate.items_out, 5u);
  EXPECT_EQ(simulate.busy_ns, 5000u);
  EXPECT_EQ(simulate.stall_spins, 0u);
  EXPECT_EQ(simulate.stall_ns, 0u);
  EXPECT_EQ(simulate.max_queue_depth, 0u);
  EXPECT_EQ(collect.stage, "collect");
  EXPECT_EQ(collect.items_in, 5u);
  EXPECT_EQ(collect.items_out, 4u);
  EXPECT_EQ(collect.busy_ns, 30u);
  EXPECT_EQ(collect.stall_spins, 1u);
  EXPECT_EQ(collect.stall_ns, 200u);
  EXPECT_EQ(collect.max_queue_depth, 3u);
  // The heartbeat's own progress stays within plans_total, so it parses.
  EXPECT_EQ(h.plans_done, 4u);
  auto parsed = RuntimeHeartbeat::heartbeat_from_json(h.heartbeat_json());
  ASSERT_TRUE(parsed) << parsed.error();
}

TEST(RuntimeTelemetryTest, ZeroPlansMeansZeroedDerivedRates) {
  g_fake_ns = 1;
  g_fake_ms = 1;
  RuntimeTelemetry t(&fake_ns, &fake_ms);
  t.begin_run(0);
  g_fake_ns += 1000000000ull;
  const RuntimeHeartbeat h = t.snapshot_runtime("running");
  EXPECT_DOUBLE_EQ(h.completion, 0.0);
  EXPECT_DOUBLE_EQ(h.plans_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(h.eta_ms, 0.0);
}

TEST(RuntimeStragglers, DetectsBeyondTwiceMedian) {
  auto with_wall = [](double wall) {
    RunManifest m = sample_manifest();
    m.wall_ms = wall;
    return m;
  };
  // Odd count: median 100; 250 > 200 flags, 150 does not.
  std::vector<RunManifest> odd = {with_wall(100), with_wall(250), with_wall(100)};
  EXPECT_EQ(straggler_shards(odd), (std::vector<std::size_t>{1}));
  std::vector<RunManifest> near = {with_wall(100), with_wall(150), with_wall(100)};
  EXPECT_TRUE(straggler_shards(near).empty());
  // Even count: median is the middle-two average (100); 500 flags.
  std::vector<RunManifest> even = {with_wall(100), with_wall(100), with_wall(100),
                                   with_wall(500)};
  EXPECT_EQ(straggler_shards(even), (std::vector<std::size_t>{3}));
  // Degenerate inputs never flag.
  EXPECT_TRUE(straggler_shards({}).empty());
  EXPECT_TRUE(straggler_shards({with_wall(100)}).empty());
}

TEST(RuntimeStragglers, StatsTableMarksStragglers) {
  auto shard = [](std::size_t k, double wall) {
    RunManifest m = sample_manifest();
    m.shard_k = k;
    m.wall_ms = wall;
    return m;
  };
  // Handed out of order: the table sorts by slice index.
  const std::string table =
      shard_stats_table({shard(2, 900), shard(0, 100), shard(1, 110)});
  EXPECT_NE(table.find("straggler"), std::string::npos) << table;
  const std::size_t row0 = table.find(" 0/4");
  const std::size_t row1 = table.find(" 1/4");
  const std::size_t row2 = table.find(" 2/4");
  ASSERT_NE(row0, std::string::npos) << table;
  ASSERT_NE(row1, std::string::npos) << table;
  ASSERT_NE(row2, std::string::npos) << table;
  EXPECT_LT(row0, row1);
  EXPECT_LT(row1, row2);
  // Only the 900 ms shard carries the marker.
  EXPECT_GT(table.find("straggler"), row2);
}

TEST(RuntimeCampaignFold, TotalsAndSortedShards) {
  auto shard = [](std::size_t k, double wall, std::uint64_t records) {
    RunManifest m = sample_manifest();
    m.shard_k = k;
    m.wall_ms = wall;
    m.records = records;
    return m;
  };
  const util::Json fold =
      campaign_manifest_json({shard(1, 200, 30), shard(0, 100, 20), shard(2, 900, 10)});
  EXPECT_EQ(fold.at("schema").as_string(), "ednsm-campaign-manifest");
  EXPECT_DOUBLE_EQ(fold.at("records").as_number(), 60.0);
  EXPECT_DOUBLE_EQ(fold.at("plans").as_number(), 30.0);
  EXPECT_DOUBLE_EQ(fold.at("wall_ms_max").as_number(), 900.0);
  EXPECT_DOUBLE_EQ(fold.at("wall_ms_sum").as_number(), 1200.0);
  EXPECT_DOUBLE_EQ(fold.at("stragglers").as_number(), 1.0);
  const util::JsonArray& shards = fold.at("shards").as_array();
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_DOUBLE_EQ(shards[0].at("k").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(shards[1].at("k").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(shards[2].at("k").as_number(), 2.0);
  EXPECT_FALSE(shards[0].at("straggler").as_bool());
  EXPECT_TRUE(shards[2].at("straggler").as_bool());
}

TEST(HeartbeatWriterTest, RateLimitAndTerminalWrites) {
  g_fake_ns = 1;
  g_fake_ms = 1000;
  RuntimeTelemetry t(&fake_ns, &fake_ms);
  t.describe_run(0x1ull, 0, 1, 1);
  t.begin_run(4);
  const std::string path = std::string(::testing::TempDir()) + "ednsm_heartbeat_test.json";
  HeartbeatWriter writer(path, t, /*interval_ms=*/500);

  auto read_status = [&path]() {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    auto j = util::Json::parse(buf.str());
    EXPECT_TRUE(j) << (j ? "" : j.error());
    return j ? j.value().at("status").as_string() : std::string();
  };

  writer.write_update();  // first call always writes, as "starting"
  EXPECT_EQ(read_status(), "starting");

  t.note_plan_done(0);
  writer.write_update();  // within the interval: rate-limited, no rewrite
  EXPECT_EQ(read_status(), "starting");

  g_fake_ns += 600ull * 1000000ull;  // past the 500 ms interval
  writer.write_update();
  EXPECT_EQ(read_status(), "running");

  auto final_ok = writer.write_final("done");
  ASSERT_TRUE(final_ok) << final_ok.error();
  EXPECT_EQ(read_status(), "done");

  // The file on disk is always a complete, valid heartbeat document.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = RuntimeHeartbeat::heartbeat_from_json(util::Json::parse(buf.str()).value());
  ASSERT_TRUE(parsed) << parsed.error();
  EXPECT_EQ(parsed.value().plans_done, 1u);
}

TEST(HeartbeatWriterTest, UpdateSwallowsIoErrors) {
  g_fake_ns = 1;
  g_fake_ms = 1;
  RuntimeTelemetry t(&fake_ns, &fake_ms);
  t.begin_run(1);
  HeartbeatWriter writer("/nonexistent-dir/heartbeat.json", t);
  writer.write_update();  // must not throw or abort
  auto final_result = writer.write_final("done");
  EXPECT_FALSE(final_result);  // terminal write surfaces the error
}

}  // namespace
}  // namespace ednsm::obs
