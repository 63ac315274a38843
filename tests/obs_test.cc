// Observability layer tests: tracer ring semantics, span guards, metrics
// registry and merge, Chrome-trace export, the campaign-level determinism
// guarantees (merged trace byte-identical across thread counts; tracing never
// perturbs the simulation), failure_stage codec behavior, and the flight
// recorder rendering.
#include <gtest/gtest.h>

#include <chrono>

#include "core/campaign.h"
#include "util/json.h"
#include "core/parallel_campaign.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/flight_recorder.h"
#include "util/bytes.h"

namespace {

using namespace ednsm;
using netsim::SimDuration;
using netsim::SimTime;

SimTime us(long long n) { return SimTime(std::chrono::microseconds(n)); }

// Minimal Clock for SpanGuard / the OBS_* macros: a settable SimTime plus a
// tracer pointer, standing in for netsim::EventQueue.
struct FakeClock {
  obs::Tracer* tracer_ptr = nullptr;
  SimTime now_{0};
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_ptr; }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
};

core::MeasurementSpec small_spec() {
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net"};
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt"};
  spec.rounds = 2;
  spec.seed = 99;
  return spec;
}

TEST(Tracer, DisabledRecordsNothing) {
  obs::Tracer t;
  EXPECT_FALSE(t.enabled());
  t.instant("sub", "ev", us(10));
  t.complete("sub", "phase", us(0), SimDuration(std::chrono::microseconds(5)));
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.buffered(), 0u);
  const obs::TraceData data = t.drain();
  EXPECT_TRUE(data.events.empty());
}

TEST(Tracer, RecordsInstantAndComplete) {
  obs::Tracer t;
  t.enable();
  t.instant("resolver", "cache-hit", us(100));
  t.complete("client", "exchange", us(50), SimDuration(std::chrono::microseconds(25)));
  EXPECT_EQ(t.emitted(), 2u);
  obs::TraceData data = t.drain();
  ASSERT_EQ(data.events.size(), 2u);
  EXPECT_EQ(data.events[0].kind, obs::EventKind::Instant);
  EXPECT_EQ(data.events[0].ts, us(100));
  EXPECT_EQ(data.symbols.name(data.events[0].subsystem), "resolver");
  EXPECT_EQ(data.symbols.name(data.events[0].name), "cache-hit");
  EXPECT_EQ(data.events[1].kind, obs::EventKind::Complete);
  EXPECT_EQ(data.events[1].ts, us(50));
  EXPECT_EQ(data.events[1].dur, SimDuration(std::chrono::microseconds(25)));
  // Drain resets the buffer but keeps recording enabled.
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(t.buffered(), 0u);
}

TEST(Tracer, RingDropsOldest) {
  obs::Tracer t;
  t.enable(4);
  for (int i = 0; i < 6; ++i) t.instant("s", "e", us(i));
  EXPECT_EQ(t.emitted(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_EQ(t.buffered(), 4u);
  const obs::TraceData data = t.drain();
  ASSERT_EQ(data.events.size(), 4u);
  // Oldest two (ts 0, 1) were overwritten; survivors come out in order.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(data.events[static_cast<std::size_t>(i)].ts, us(i + 2));
  EXPECT_EQ(data.dropped, 2u);
  EXPECT_EQ(data.emitted, 6u);
}

TEST(Tracer, SpanGuardPairsBeginEnd) {
  obs::Tracer t;
  t.enable();
  FakeClock clk;
  clk.tracer_ptr = &t;
  clk.now_ = us(10);
  {
    OBS_SPAN(clk, "core", "round");
    clk.now_ = us(75);
  }
  obs::TraceData data = t.drain();
  ASSERT_EQ(data.events.size(), 1u);
  EXPECT_EQ(data.events[0].kind, obs::EventKind::Complete);
  EXPECT_EQ(data.events[0].ts, us(10));
  EXPECT_EQ(data.events[0].dur, SimDuration(std::chrono::microseconds(65)));
  EXPECT_EQ(data.symbols.name(data.events[0].name), "round");
}

TEST(Tracer, MacrosNoOpWithoutTracerOrWhenDisabled) {
  FakeClock no_tracer;  // tracer() == nullptr: macros must not dereference
  OBS_EVENT(no_tracer, "s", "e");
  OBS_COMPLETE(no_tracer, "s", "e", us(0), SimDuration{0});
  { OBS_SPAN(no_tracer, "s", "e"); }

  obs::Tracer t;  // present but disabled
  FakeClock clk;
  clk.tracer_ptr = &t;
  OBS_EVENT(clk, "s", "e");
  { OBS_SPAN(clk, "s", "e"); }
  EXPECT_EQ(t.emitted(), 0u);
}

TEST(Metrics, CountersGaugesDistributions) {
  obs::Metrics m;
  m.add("netsim.datagrams_sent", 3);
  m.add("netsim.datagrams_sent");
  EXPECT_EQ(m.counter("netsim.datagrams_sent"), 4u);
  EXPECT_EQ(m.counter("never.registered"), 0u);

  m.observe("campaign.response_ms", 10.0);
  m.observe("campaign.response_ms", 30.0);
  const stats::Welford* d = m.distribution("campaign.response_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 2u);
  EXPECT_DOUBLE_EQ(d->mean(), 20.0);
}

TEST(Metrics, MergeCombinesByName) {
  obs::Metrics a, b;
  a.add("x.count", 2);
  b.add("x.count", 5);
  b.add("y.count", 1);  // only in b; symbol ids differ between registries
  a.observe("lat_ms", 10.0);
  b.observe("lat_ms", 20.0);
  a.merge(b);
  EXPECT_EQ(a.counter("x.count"), 7u);
  EXPECT_EQ(a.counter("y.count"), 1u);
  const stats::Welford* d = a.distribution("lat_ms");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 2u);
  EXPECT_DOUBLE_EQ(d->mean(), 15.0);
}

TEST(Metrics, MergeWithEmptyShards) {
  // A shard that recorded nothing must be an identity element on both sides —
  // the parallel engine merges one registry per shard even when a shard's
  // vantage issued no queries.
  obs::Metrics populated;
  populated.add("x.count", 3);
  populated.observe("lat_ms", 12.5);

  obs::Metrics empty;
  populated.merge(empty);
  EXPECT_EQ(populated.counter("x.count"), 3u);
  ASSERT_NE(populated.distribution("lat_ms"), nullptr);
  EXPECT_EQ(populated.distribution("lat_ms")->count(), 1u);

  obs::Metrics target;
  target.merge(populated);
  EXPECT_EQ(target.counter("x.count"), 3u);
  ASSERT_NE(target.distribution("lat_ms"), nullptr);
  EXPECT_DOUBLE_EQ(target.distribution("lat_ms")->mean(), 12.5);

  obs::Metrics a, b;
  a.merge(b);  // both empty: still empty, jsonl has no lines
  EXPECT_TRUE(a.jsonl().empty());
}

// The names in one JSONL dump, in line order; every line must parse.
std::vector<std::string> jsonl_names(const std::string& jsonl) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const auto parsed = util::Json::parse(jsonl.substr(start, end - start));
    EXPECT_TRUE(parsed) << jsonl.substr(start, end - start);
    if (!parsed || !parsed.value().at("name").is_string()) return names;
    names.push_back(parsed.value().at("name").as_string());
    start = end + 1;
  }
  return names;
}

TEST(Metrics, JsonlIsSortedAndParses) {
  obs::Metrics m;
  m.add("zz.last", 1);
  m.add("aa.first", 2);
  m.observe("mm.lat_ms", 4.5);
  const std::vector<std::string> names = jsonl_names(m.jsonl());
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  // A shard file can carry any metric name: quotes, backslashes and control
  // bytes are escaped, and the name reads back intact.
  obs::Metrics hostile;
  const std::string counter_name = "c\"q\\b\nn\x01";
  const std::string dist_name = "d\"q\\b\nn\x01";
  hostile.add(counter_name, 1);
  hostile.observe(dist_name, 2.0);
  EXPECT_EQ(jsonl_names(hostile.jsonl()), (std::vector<std::string>{counter_name, dist_name}));
}

TEST(Metrics, JsonKeepsAnEmptyGaugesArrayAndRejectsGauges) {
  obs::Metrics m;
  m.add("x.count", 3);
  m.observe("lat_ms", 12.5);
  const util::Json j = m.to_json();
  ASSERT_TRUE(j.at("gauges").is_array());
  EXPECT_TRUE(j.at("gauges").as_array().empty());
  const auto back = obs::Metrics::from_json(j);
  ASSERT_TRUE(back) << back.error();
  EXPECT_EQ(back.value().jsonl(), m.jsonl());

  auto with_gauge = util::Json::parse(
      R"({"counters": [], "dists": [], "gauges": [["campaign.shards", 2]]})");
  ASSERT_TRUE(with_gauge);
  const auto rejected = obs::Metrics::from_json(with_gauge.value());
  ASSERT_FALSE(rejected);
  EXPECT_NE(rejected.error().find("gauges"), std::string::npos) << rejected.error();
}

TEST(MergedTrace, ChromeJsonParsesAndFilters) {
  obs::Tracer t;
  t.enable();
  t.instant("resolver", "cache-hit", us(10));
  t.complete("client", "exchange", us(0), SimDuration(std::chrono::microseconds(7)));
  obs::MergedTrace merged;
  merged.add_shard("vantage/ec2-ohio", t.drain());
  EXPECT_EQ(merged.shard_count(), 1u);
  EXPECT_EQ(merged.total_events(), 2u);

  const auto parsed = util::Json::parse(merged.chrome_json());
  ASSERT_TRUE(parsed) << parsed.error();
  const util::JsonArray& events = parsed.value().at("traceEvents").as_array();
  std::size_t payload = 0, metadata = 0;
  for (const util::Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
    } else {
      ASSERT_TRUE(ph == "X" || ph == "i") << ph;
      ++payload;
    }
  }
  EXPECT_EQ(payload, 2u);
  EXPECT_GE(metadata, 1u);  // at least the shard thread_name record

  // Subsystem filter: only the resolver event survives (plus metadata).
  const auto filtered = util::Json::parse(merged.chrome_json("resolver"));
  ASSERT_TRUE(filtered);
  std::size_t kept = 0;
  for (const util::Json& e : filtered.value().at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M") {
      ++kept;
      EXPECT_EQ(e.at("cat").as_string(), "resolver");
    }
  }
  EXPECT_EQ(kept, 1u);
}

// A traced campaign plus one hand-built shard whose label and symbols need
// every escape the trace writer knows: quote, backslash, \n \r \t, and the
// other control bytes (\b and \f among them, spelled \u0008 and \u000c).
obs::MergedTrace traced_campaign_with_odd_labels(int rounds) {
  core::MeasurementSpec spec = small_spec();
  spec.rounds = rounds;
  core::CampaignObsOptions opts;
  opts.trace = true;
  core::CampaignObsData data;
  (void)core::run_parallel_campaign(spec, 1, opts, &data);
  obs::Tracer t;
  t.enable();
  t.instant("core", "quote\" back\\slash", us(5));
  t.complete("core", std::string("bs\b ff\f nl\n cr\r tab\t ctl\x01 nul") + '\0' + " end", us(1),
             SimDuration(std::chrono::microseconds(3)));
  t.instant("resolver\x1f", "caf\xc3\xa9 del\x7f", us(9));
  data.trace.add_shard("vantage/\"odd\\label\"\b\f\x02", t.drain());
  return std::move(data.trace);
}

// Pins the Chrome trace bytes by FNV-1a, unfiltered and filtered to one
// subsystem: a change to the trace writer that moves any byte fails here.
TEST(MergedTrace, ChromeJsonMatchesPinnedDigests) {
  const obs::MergedTrace merged = traced_campaign_with_odd_labels(2);
  const std::string all = merged.chrome_json();
  const std::string core = merged.chrome_json("core");
  for (const char* escaped : {"\\\"odd\\\\label\\\"\\u0008\\u000c\\u0002", "\\\"", "\\\\",
                              "\\n", "\\r", "\\t", "\\u0001", "\\u0000", "\\u001f",
                              "caf\xc3\xa9 del\x7f"}) {
    EXPECT_NE(all.find(escaped), std::string::npos) << escaped;
  }
  EXPECT_NE(core.find("bs\\u0008 ff\\u000c"), std::string::npos);
  // The string form is sized before it is written, so it is allocated once.
  EXPECT_EQ(all.capacity(), all.size());
  EXPECT_EQ(core.capacity(), core.size());
  EXPECT_EQ(core.find("\"cat\":\"resolver"), std::string::npos);
  EXPECT_EQ(util::u64_to_hex(util::fnv1a(all)), "f4056e56e51e0d90");
  EXPECT_EQ(util::u64_to_hex(util::fnv1a(core)), "127c0ff1ff9343be");
}

// The sink form (what ednsm_measure and ednsm_merge stream into their atomic
// file writers) hands over chrome_json()'s bytes in chunks of at least
// kChunkBytes, the last one excepted.
TEST(MergedTrace, SinkFormMatchesChromeJsonAcrossChunks) {
  const obs::MergedTrace merged = traced_campaign_with_odd_labels(8);
  for (const std::string_view filter : {std::string_view{}, std::string_view{"netsim"}}) {
    std::vector<std::string> chunks;
    merged.write_chrome_json([&chunks](std::string_view s) { chunks.emplace_back(s); }, filter);
    EXPECT_GE(chunks.size(), 2u) << filter;
    std::string joined;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (i + 1 < chunks.size()) {
        EXPECT_GE(chunks[i].size(), util::JsonWriter::kChunkBytes);
      }
      joined += chunks[i];
    }
    EXPECT_EQ(joined, merged.chrome_json(filter)) << filter;
  }
}

// The headline guarantee: the merged trace of a sharded campaign is a pure
// function of the spec — byte-identical JSON for any thread count.
TEST(CampaignTrace, MergedTraceByteIdenticalAcrossThreadCounts) {
  const core::MeasurementSpec spec = small_spec();
  core::CampaignObsOptions opts;
  opts.trace = true;
  core::CampaignObsData one, eight;
  const core::CampaignResult r1 = core::run_parallel_campaign(spec, 1, opts, &one);
  const core::CampaignResult r8 = core::run_parallel_campaign(spec, 8, opts, &eight);
  EXPECT_EQ(r1.to_json().dump(0), r8.to_json().dump(0));
  ASSERT_EQ(one.trace.shard_count(), spec.vantage_ids.size());
  EXPECT_GT(one.trace.total_events(), 0u);
  EXPECT_EQ(one.trace.chrome_json(), eight.trace.chrome_json());
}

// Tracing must never perturb the simulation: results with tracing on are
// byte-identical to the plain (no-obs) run.
TEST(CampaignTrace, TracingDoesNotPerturbResults) {
  const core::MeasurementSpec spec = small_spec();
  const core::CampaignResult plain = core::run_parallel_campaign(spec, 2);
  core::CampaignObsOptions opts;
  opts.trace = true;
  opts.metrics = true;
  core::CampaignObsData data;
  const core::CampaignResult traced = core::run_parallel_campaign(spec, 2, opts, &data);
  EXPECT_EQ(plain.to_json().dump(0), traced.to_json().dump(0));
  EXPECT_FALSE(data.metrics.empty());
  EXPECT_EQ(data.metrics.counter("campaign.records"), plain.records.size());
}

TEST(CampaignTrace, MetricsMatchAcrossThreadCounts) {
  const core::MeasurementSpec spec = small_spec();
  core::CampaignObsOptions opts;
  opts.metrics = true;
  core::CampaignObsData one, four;
  (void)core::run_parallel_campaign(spec, 1, opts, &one);
  (void)core::run_parallel_campaign(spec, 4, opts, &four);
  EXPECT_EQ(one.metrics.jsonl(), four.metrics.jsonl());
}

TEST(FailureStage, DeriveMapping) {
  EXPECT_EQ(core::derive_failure_stage("connect-refused"), "connect");
  EXPECT_EQ(core::derive_failure_stage("connect-timeout"), "connect");
  EXPECT_EQ(core::derive_failure_stage("bootstrap-failure"), "connect");
  EXPECT_EQ(core::derive_failure_stage("tls-failure"), "handshake");
  EXPECT_EQ(core::derive_failure_stage("http-error"), "query");
  EXPECT_EQ(core::derive_failure_stage("malformed"), "query");
  EXPECT_EQ(core::derive_failure_stage("timeout"), "timeout");
  EXPECT_EQ(core::derive_failure_stage("something-new"), "");
}

TEST(FailureStage, JsonRoundTripAndLegacyDerivation) {
  core::ResultRecord r;
  r.vantage = "ec2-ohio";
  r.resolver = "dns.google";
  r.domain = "google.com";
  r.ok = false;
  r.error_class = "tls-failure";
  r.failure_stage = "handshake";
  const util::Json j = r.to_json();
  ASSERT_TRUE(j.at("failure_stage").is_string());
  const auto back = core::ResultRecord::from_json(j);
  ASSERT_TRUE(back);
  EXPECT_EQ(back.value().failure_stage, "handshake");

  // A file written before failure_stage existed: reader derives it from
  // error_class instead of leaving it empty.
  util::JsonObject legacy = j.as_object();
  legacy.erase("failure_stage");
  const auto derived = core::ResultRecord::from_json(util::Json(std::move(legacy)));
  ASSERT_TRUE(derived);
  EXPECT_EQ(derived.value().failure_stage, "handshake");

  // Successful records never emit the field.
  core::ResultRecord ok_rec = r;
  ok_rec.ok = true;
  ok_rec.error_class.clear();
  ok_rec.failure_stage.clear();
  ok_rec.rcode = "NOERROR";
  EXPECT_TRUE(ok_rec.to_json().at("failure_stage").is_null());
}

TEST(FlightRecorder, RendersSlowestQueriesAndBreakdown) {
  const core::CampaignResult result = core::run_parallel_campaign(small_spec(), 2);
  ASSERT_FALSE(result.records.empty());
  const std::string report = report::render_flight_recorder(result, 5);
  EXPECT_NE(report.find("Slowest"), std::string::npos) << report;
  EXPECT_NE(report.find("exchange"), std::string::npos) << report;
  // Deterministic: rendering twice gives the same bytes.
  EXPECT_EQ(report, report::render_flight_recorder(result, 5));
  // Top-1 is a prefix-sized subset: fewer queries rendered, never more.
  const std::string top1 = report::render_slowest_queries(result, 1);
  const std::string top5 = report::render_slowest_queries(result, 5);
  EXPECT_LT(top1.size(), top5.size());
}

TEST(FlightRecorder, EqualDurationsTieBreakOnVantageResolverRound) {
  // Three records with identical durations, inserted in the reverse of the
  // (vantage, resolver, round) order the listing must produce. Regression:
  // the sort used to fall back to insertion order for equal durations, so a
  // file with non-canonical record order rendered a different top-N.
  core::CampaignResult result;
  const auto rec = [](const char* vantage, const char* resolver, int round) {
    core::ResultRecord r;
    r.vantage = vantage;
    r.resolver = resolver;
    r.round = round;
    r.domain = "example.com";
    r.ok = true;
    r.rcode = "NOERROR";
    r.response_ms = 120.0;
    r.exchange_ms = 120.0;
    return r;
  };
  result.records.push_back(rec("v-b", "res-a", 0));
  result.records.push_back(rec("v-a", "res-b", 1));
  result.records.push_back(rec("v-a", "res-a", 2));

  const std::string listing = report::render_slowest_queries(result, 3);
  const std::size_t first = listing.find("v-a -> res-a");
  const std::size_t second = listing.find("v-a -> res-b");
  const std::size_t third = listing.find("v-b -> res-a");
  ASSERT_NE(first, std::string::npos) << listing;
  ASSERT_NE(second, std::string::npos) << listing;
  ASSERT_NE(third, std::string::npos) << listing;
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
}

// Attribution primitives: the pure aggregations monitor/diagnose argues from.

obs::QueryEvidence ev_row(const char* vantage, const char* domain, int epoch, int round, bool ok,
                          const char* stage, double response_ms) {
  obs::QueryEvidence e;
  e.vantage = vantage;
  e.domain = domain;
  e.epoch = epoch;
  e.round = round;
  e.ok = ok;
  e.response_ms = response_ms;
  e.failure_stage = stage;
  return e;
}

TEST(Attribution, CountStagesInclusiveWindowAndTaxonomy) {
  std::vector<obs::QueryEvidence> rows;
  rows.push_back(ev_row("v1", "a.com", 1, 0, false, "connect", 0.0));    // outside window
  rows.push_back(ev_row("v1", "a.com", 2, 0, false, "connect", 0.0));
  rows.push_back(ev_row("v1", "b.com", 2, 1, false, "timeout", 0.0));
  rows.push_back(ev_row("v1", "c.com", 3, 0, false, "handshake", 0.0));
  rows.push_back(ev_row("v1", "d.com", 3, 1, false, "martian", 0.0));    // unknown -> other
  rows.push_back(ev_row("v1", "e.com", 3, 1, true, "", 12.0));           // success not counted
  rows.push_back(ev_row("v1", "a.com", 4, 0, false, "query", 0.0));      // outside window

  const obs::StageBreakdown b = obs::count_stages(rows, 2, 3);
  EXPECT_EQ(b.connect, 1u);
  EXPECT_EQ(b.timeout, 1u);
  EXPECT_EQ(b.handshake, 1u);
  EXPECT_EQ(b.other, 1u);
  EXPECT_EQ(b.query, 0u);
  EXPECT_EQ(b.total(), 4u);
  // Four-way tie: taxonomy order puts connect first.
  EXPECT_EQ(b.dominant(), "connect");

  // Empty and inverted windows are default-constructed: no failures, no stage.
  EXPECT_EQ(obs::count_stages(rows, 10, 20).total(), 0u);
  EXPECT_EQ(obs::count_stages(rows, 3, 2).total(), 0u);
  EXPECT_EQ(obs::count_stages(rows, 10, 20).dominant(), "");
}

TEST(Attribution, ProfilePhasesMediansOverSuccesses) {
  std::vector<obs::QueryEvidence> rows;
  for (int i = 0; i < 3; ++i) {
    obs::QueryEvidence e = ev_row("v1", "a.com", 1, i, true, "", 10.0 * (i + 1));
    e.tcp_ms = 1.0 * (i + 1);
    e.exchange_ms = 5.0 * (i + 1);
    e.reused = (i == 0);
    rows.push_back(e);
  }
  rows.push_back(ev_row("v1", "b.com", 1, 3, false, "timeout", 0.0));

  const obs::PhaseProfile p = obs::profile_phases(rows, 1, 1);
  EXPECT_EQ(p.queries, 4u);
  EXPECT_EQ(p.failures, 1u);
  EXPECT_DOUBLE_EQ(p.availability, 0.75);
  EXPECT_DOUBLE_EQ(p.reused_fraction, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.response_ms, 20.0);  // median of {10, 20, 30}
  EXPECT_DOUBLE_EQ(p.tcp_ms, 2.0);
  EXPECT_DOUBLE_EQ(p.exchange_ms, 10.0);

  // No queries in the window: the default profile (availability 1.0).
  const obs::PhaseProfile empty = obs::profile_phases(rows, 5, 9);
  EXPECT_EQ(empty.queries, 0u);
  EXPECT_DOUBLE_EQ(empty.availability, 1.0);
}

TEST(Attribution, PhaseDeltaIsWindowMinusBaseline) {
  obs::PhaseProfile base;
  base.availability = 1.0;
  base.response_ms = 40.0;
  base.tcp_ms = 5.0;
  base.reused_fraction = 0.5;
  obs::PhaseProfile win;
  win.availability = 0.25;
  win.response_ms = 100.0;
  win.tcp_ms = 20.0;
  win.reused_fraction = 0.75;

  const obs::PhaseDelta d = obs::phase_delta(base, win);
  EXPECT_DOUBLE_EQ(d.availability, -0.75);
  EXPECT_DOUBLE_EQ(d.response_ms, 60.0);
  EXPECT_DOUBLE_EQ(d.tcp_ms, 15.0);
  EXPECT_DOUBLE_EQ(d.reused_fraction, 0.25);
  EXPECT_DOUBLE_EQ(d.tls_ms, 0.0);
}

TEST(Attribution, PickExemplarsFailuresFirstThenSlowest) {
  std::vector<obs::QueryEvidence> rows;
  rows.push_back(ev_row("v1", "slow.com", 2, 0, true, "", 99.0));
  rows.push_back(ev_row("v1", "fast.com", 2, 0, true, "", 5.0));
  rows.push_back(ev_row("v2", "x.com", 3, 1, false, "connect", 0.0));
  rows.push_back(ev_row("v1", "y.com", 2, 1, false, "timeout", 0.0));
  rows.push_back(ev_row("v1", "z.com", 9, 0, false, "connect", 0.0));  // outside window

  const std::vector<obs::Exemplar> top = obs::pick_exemplars(rows, 2, 3, 3);
  ASSERT_EQ(top.size(), 3u);
  // Failures lead, earliest evidence first: (epoch, vantage, round, domain).
  EXPECT_FALSE(top[0].ok);
  EXPECT_EQ(top[0].domain, "y.com");
  EXPECT_FALSE(top[1].ok);
  EXPECT_EQ(top[1].domain, "x.com");
  // Then the slowest success.
  EXPECT_TRUE(top[2].ok);
  EXPECT_EQ(top[2].domain, "slow.com");
  EXPECT_DOUBLE_EQ(top[2].response_ms, 99.0);

  EXPECT_EQ(obs::pick_exemplars(rows, 2, 3, 2).size(), 2u);
  EXPECT_TRUE(obs::pick_exemplars(rows, 2, 3, 0).empty());
}

TEST(Attribution, AggregateCodecsRoundTrip) {
  obs::StageBreakdown b;
  b.connect = 3;
  b.timeout = 1;
  b.other = 2;
  auto b2 = obs::StageBreakdown::from_json(b.to_json());
  ASSERT_TRUE(b2) << b2.error();
  EXPECT_EQ(b2.value().to_json().dump(0), b.to_json().dump(0));

  obs::PhaseProfile p;
  p.queries = 7;
  p.failures = 2;
  p.availability = 5.0 / 7.0;
  p.reused_fraction = 0.4;
  p.response_ms = 33.5;
  p.tls_ms = 8.25;
  auto p2 = obs::PhaseProfile::from_json(p.to_json());
  ASSERT_TRUE(p2) << p2.error();
  EXPECT_EQ(p2.value().to_json().dump(0), p.to_json().dump(0));

  obs::PhaseDelta d;
  d.availability = -0.5;
  d.wait_ms = 12.0;
  auto d2 = obs::PhaseDelta::from_json(d.to_json());
  ASSERT_TRUE(d2) << d2.error();
  EXPECT_EQ(d2.value().to_json().dump(0), d.to_json().dump(0));

  obs::Exemplar x;
  x.vantage = "ec2-ohio";
  x.domain = "example.com";
  x.epoch = 4;
  x.round = 1;
  x.ok = false;
  x.failure_stage = "connect";
  x.error_class = "connect-refused";
  x.flight_ref = "epoch4/ec2-ohio/dns.google/r1/example.com";
  auto x2 = obs::Exemplar::from_json(x.to_json());
  ASSERT_TRUE(x2) << x2.error();
  EXPECT_EQ(x2.value().to_json().dump(0), x.to_json().dump(0));

  EXPECT_FALSE(obs::StageBreakdown::from_json(util::Json(1.0)));
  EXPECT_FALSE(obs::PhaseProfile::from_json(util::Json(1.0)));
  EXPECT_FALSE(obs::PhaseDelta::from_json(util::Json(1.0)));
  EXPECT_FALSE(obs::Exemplar::from_json(util::Json(1.0)));
}

}  // namespace
