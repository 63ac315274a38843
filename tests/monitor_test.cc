// Longitudinal monitor tests: TimeSeries store semantics and codecs (JSONL,
// binary, SeriesPoint JSON), rolling SLO evaluation, event detection, the
// scripted-outage fault hook, end-to-end run_monitor determinism across
// thread counts, Prometheus exposition, and the HTML dashboard.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/campaign.h"
#include "core/parallel_campaign.h"
#include "monitor/diagnose.h"
#include "monitor/events.h"
#include "monitor/monitor.h"
#include "monitor/prom.h"
#include "monitor/slo.h"
#include "obs/timeseries.h"
#include "web/dashboard.h"

namespace {

using namespace ednsm;

// Shorthand writers for the common single-pair series used below.
void add_epoch(obs::TimeSeries& ts, int epoch, std::uint64_t queries, std::uint64_t failures,
               double latency_ms) {
  ts.add_counter(monitor::kMetricQueries, "v1", "r1", "DoH", epoch, queries);
  if (failures > 0) ts.add_counter(monitor::kMetricFailures, "v1", "r1", "DoH", epoch, failures);
  for (std::uint64_t i = 0; i < queries - failures; ++i) {
    ts.observe(monitor::kMetricResponseMs, "v1", "r1", "DoH", epoch, latency_ms);
  }
}

monitor::MonitorSpec small_monitor_spec() {
  monitor::MonitorSpec spec;
  spec.base.resolvers = {"dns.google", "ordns.he.net"};
  spec.base.vantage_ids = {"ec2-ohio"};
  spec.base.rounds = 2;
  spec.base.seed = 20260805;
  spec.epochs = 6;
  return spec;
}

TEST(TimeSeries, CountersAndHistogramsByBucket) {
  obs::TimeSeries ts(10);
  EXPECT_EQ(ts.bucket_of(29), 2);
  ts.add_counter("q", "v", "r", "DoH", 5, 3);
  ts.add_counter("q", "v", "r", "DoH", 7);  // same bucket 0
  ts.add_counter("q", "v", "r", "DoH", 25); // bucket 2
  EXPECT_EQ(ts.counter_at("q", "v", "r", "DoH", 0), 4u);
  EXPECT_EQ(ts.counter_at("q", "v", "r", "DoH", 1), 0u);
  EXPECT_EQ(ts.counter_at("q", "v", "r", "DoH", 2), 1u);
  EXPECT_EQ(ts.counter_at("q", "other", "r", "DoH", 0), 0u);

  ts.observe("lat", "v", "r", "DoH", 5, 10.0);
  ts.observe("lat", "v", "r", "DoH", 6, 30.0);
  const stats::Welford* d = ts.dist_at("lat", "v", "r", "DoH", 0);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 2u);
  EXPECT_DOUBLE_EQ(d->mean(), 20.0);
  EXPECT_TRUE(std::isnan(ts.dist_quantile("lat", "v", "r", "DoH", 3, 0.5)));

  // 2 counter buckets + 1 histogram (both observations share bucket 0).
  EXPECT_EQ(ts.size(), 3u);
}

TEST(TimeSeries, WindowQuantileMergesBuckets) {
  obs::TimeSeries ts(1);
  for (int i = 0; i < 50; ++i) ts.observe("lat", "v", "r", "DoH", 0, 100.0);
  for (int i = 0; i < 50; ++i) ts.observe("lat", "v", "r", "DoH", 1, 500.0);
  const double p50_single = ts.dist_quantile("lat", "v", "r", "DoH", 0, 0.5);
  EXPECT_NEAR(p50_single, 100.0, obs::TimeSeries::kHistBinWidthMs);
  // Across both buckets the upper quantile must see bucket 1's samples.
  const double p95 = ts.window_quantile("lat", "v", "r", "DoH", 0, 1, 0.95);
  EXPECT_NEAR(p95, 500.0, obs::TimeSeries::kHistBinWidthMs);
  EXPECT_TRUE(std::isnan(ts.window_quantile("lat", "v", "r", "DoH", 5, 9, 0.5)));
}

TEST(TimeSeries, SnapshotCanonicalAcrossInternOrder) {
  // Same logical contents, opposite insertion (and therefore intern) order.
  obs::TimeSeries a(1), b(1);
  a.add_counter("m1", "va", "ra", "DoH", 0, 1);
  a.add_counter("m2", "vb", "rb", "DoT", 1, 2);
  b.add_counter("m2", "vb", "rb", "DoT", 1, 2);
  b.add_counter("m1", "va", "ra", "DoH", 0, 1);
  EXPECT_EQ(a.jsonl(), b.jsonl());
  EXPECT_EQ(a.to_binary(), b.to_binary());
}

TEST(TimeSeries, BinaryRoundTripAndValidation) {
  obs::TimeSeries ts(2);
  ts.add_counter("q", "v1", "r1", "DoH", 0, 9);
  ts.add_counter("q", "v2", "r2", "DoT", 4, 3);
  for (int i = 0; i < 40; ++i) ts.observe("lat", "v1", "r1", "DoH", 2, 7.0 * i);
  const util::Bytes blob = ts.to_binary();

  auto back = obs::TimeSeries::from_binary(blob);
  ASSERT_TRUE(back) << back.error();
  EXPECT_EQ(back.value().jsonl(), ts.jsonl());
  EXPECT_EQ(back.value().to_binary(), blob);

  // Corruption: wrong magic, truncation, and trailing garbage all fail.
  util::Bytes bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(obs::TimeSeries::from_binary(bad_magic));
  util::Bytes truncated(blob.begin(), blob.begin() + static_cast<long>(blob.size() / 2));
  EXPECT_FALSE(obs::TimeSeries::from_binary(truncated));
  util::Bytes trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(obs::TimeSeries::from_binary(trailing));
  EXPECT_FALSE(obs::TimeSeries::from_binary(util::Bytes{}));

  // A lone counter's blob ends in its tag byte and u64 value. Tag 1 (the
  // removed gauge kind) is unknown now; tags 0 and 2 keep their numbers.
  obs::TimeSeries one(1);
  one.add_counter("q", "v", "r", "DoH", 0, 5);
  util::Bytes tagged = one.to_binary();
  const std::size_t tag_at = tagged.size() - 9;
  ASSERT_EQ(tagged[tag_at], 0);
  tagged[tag_at] = 1;
  EXPECT_FALSE(obs::TimeSeries::from_binary(tagged));
}

TEST(TimeSeries, SeriesPointCodecAndInsertValidation) {
  obs::TimeSeries ts(1);
  ts.observe("lat", "v", "r", "DoH", 0, 42.0);
  const std::vector<obs::SeriesPoint> points = ts.snapshot();
  ASSERT_EQ(points.size(), 1u);
  auto round = obs::SeriesPoint::from_json(points[0].to_json());
  ASSERT_TRUE(round) << round.error();
  EXPECT_EQ(round.value().kind, "histogram");
  EXPECT_EQ(round.value().count, 1u);

  obs::SeriesPoint bad_kind = points[0];
  bad_kind.kind = "summary";
  obs::TimeSeries target(1);
  EXPECT_FALSE(target.insert(bad_kind));
  obs::SeriesPoint bad_bin = points[0];
  // kHistBins itself is the overflow bin; one past it is out of range.
  bad_bin.bins = {{static_cast<std::uint32_t>(obs::TimeSeries::kHistBins) + 1, 1}};
  EXPECT_FALSE(target.insert(bad_bin));
  EXPECT_TRUE(target.insert(points[0]));
}

TEST(Slo, StatesFollowEpochAndWindowSignals) {
  obs::TimeSeries ts(1);
  add_epoch(ts, 0, 10, 0, 50.0);
  add_epoch(ts, 1, 10, 10, 0.0);   // full outage epoch
  add_epoch(ts, 2, 10, 0, 50.0);
  add_epoch(ts, 3, 10, 0, 50.0);
  add_epoch(ts, 4, 10, 0, 50.0);

  monitor::SloConfig config;
  config.window_epochs = 2;
  const std::vector<monitor::SloSample> slos =
      monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 5);
  ASSERT_EQ(slos.size(), 5u);
  EXPECT_EQ(slos[0].state, "healthy");
  EXPECT_EQ(slos[1].state, "outage");
  EXPECT_DOUBLE_EQ(slos[1].availability, 0.0);
  // Epoch 2 recovered, but its window still contains the outage: degraded
  // (window availability 0.5 < any tier's floor).
  EXPECT_EQ(slos[2].state, "degraded");
  EXPECT_DOUBLE_EQ(slos[2].window_availability, 0.5);
  EXPECT_EQ(slos[3].state, "healthy");
  EXPECT_EQ(slos[4].state, "healthy");
}

TEST(Slo, LatencyBreachDegradesPerTier) {
  obs::TimeSeries ts(1);
  // 300 ms p50: inside hobbyist targets, far outside hyperscale's 120 ms.
  ts.add_counter(monitor::kMetricQueries, "v1", "dns.google", "DoH", 0, 10);
  ts.add_counter(monitor::kMetricQueries, "v1", "unknown.example", "DoH", 0, 10);
  for (int i = 0; i < 10; ++i) {
    ts.observe(monitor::kMetricResponseMs, "v1", "dns.google", "DoH", 0, 300.0);
    ts.observe(monitor::kMetricResponseMs, "v1", "unknown.example", "DoH", 0, 300.0);
  }
  monitor::SloConfig config;
  const std::vector<monitor::SloSample> slos =
      monitor::evaluate_slos(ts, config, {"v1"}, {"dns.google", "unknown.example"}, "DoH", 1);
  ASSERT_EQ(slos.size(), 2u);
  EXPECT_EQ(slos[0].resolver, "dns.google");
  EXPECT_EQ(slos[0].state, "degraded");
  EXPECT_EQ(slos[1].state, "healthy");  // unknown hostname judged as hobbyist
}

TEST(Slo, EmptySeriesIsHealthy) {
  const obs::TimeSeries ts(1);
  monitor::SloConfig config;
  const std::vector<monitor::SloSample> slos =
      monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 3);
  ASSERT_EQ(slos.size(), 3u);
  for (const monitor::SloSample& s : slos) {
    EXPECT_EQ(s.state, "healthy");
    EXPECT_EQ(s.queries, 0u);
    EXPECT_DOUBLE_EQ(s.availability, 1.0);
    EXPECT_DOUBLE_EQ(s.p99_ms, 0.0);  // NaN-free JSON for empty windows
  }
}

TEST(Events, MaximalRunsWithExactBounds) {
  obs::TimeSeries ts(1);
  add_epoch(ts, 0, 10, 0, 50.0);
  add_epoch(ts, 1, 10, 10, 0.0);
  add_epoch(ts, 2, 10, 10, 0.0);
  add_epoch(ts, 3, 10, 0, 50.0);
  add_epoch(ts, 4, 10, 0, 50.0);
  add_epoch(ts, 5, 10, 0, 50.0);

  monitor::SloConfig config;
  config.window_epochs = 1;  // no smear: isolate the outage run
  config.flap_transitions = 5;
  const std::vector<monitor::SloSample> slos =
      monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 6);
  const std::vector<monitor::MonitorEvent> events = monitor::detect_events(slos, config);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, "outage");
  EXPECT_EQ(events[0].start_epoch, 1);
  EXPECT_EQ(events[0].end_epoch, 2);
}

TEST(Events, FlapBracketsTransitions) {
  obs::TimeSeries ts(1);
  add_epoch(ts, 0, 10, 0, 50.0);
  add_epoch(ts, 1, 10, 10, 0.0);
  add_epoch(ts, 2, 10, 0, 50.0);
  add_epoch(ts, 3, 10, 10, 0.0);

  monitor::SloConfig config;
  config.window_epochs = 1;
  config.flap_transitions = 3;
  const std::vector<monitor::SloSample> slos =
      monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 4);
  const std::vector<monitor::MonitorEvent> events = monitor::detect_events(slos, config);
  // Two outage runs plus the flap spanning all three transitions.
  ASSERT_EQ(events.size(), 3u);
  const monitor::MonitorEvent* flap = nullptr;
  for (const monitor::MonitorEvent& e : events) {
    if (e.type == "flap") flap = &e;
  }
  ASSERT_NE(flap, nullptr);
  EXPECT_EQ(flap->transitions, 3);
  EXPECT_EQ(flap->start_epoch, 1);
  EXPECT_EQ(flap->end_epoch, 3);

  auto round = monitor::MonitorEvent::from_json(flap->to_json());
  ASSERT_TRUE(round) << round.error();
  EXPECT_EQ(round.value().transitions, 3);
}

TEST(FaultWindow, SpecCodecAndValidation) {
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 4;
  // No windows: key omitted entirely, so pre-monitor result files round-trip.
  EXPECT_TRUE(spec.to_json().at("fault_windows").is_null());

  spec.fault_windows.push_back(core::FaultWindow{"dns.google", 1, 3});
  ASSERT_TRUE(spec.validate());
  auto round = core::MeasurementSpec::from_json(spec.to_json());
  ASSERT_TRUE(round) << round.error();
  ASSERT_EQ(round.value().fault_windows.size(), 1u);
  EXPECT_EQ(round.value().fault_windows[0].resolver, "dns.google");
  EXPECT_EQ(round.value().fault_windows[0].from_round, 1);
  EXPECT_EQ(round.value().fault_windows[0].to_round, 3);

  spec.fault_windows[0].to_round = 1;  // empty window
  EXPECT_FALSE(spec.validate());
  spec.fault_windows[0] = core::FaultWindow{"", 0, 2};
  EXPECT_FALSE(spec.validate());
  // A window on a resolver the spec does not measure would do nothing.
  spec.fault_windows[0] = core::FaultWindow{"dns.gooogle", 0, 2};
  const auto unmeasured = spec.validate();
  ASSERT_FALSE(unmeasured);
  EXPECT_NE(unmeasured.error().find("dns.gooogle"), std::string::npos) << unmeasured.error();
}

TEST(FaultWindow, CampaignOutageCoversExactRounds) {
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 4;
  spec.seed = 7;
  spec.fault_windows.push_back(core::FaultWindow{"dns.google", 1, 3});

  const core::CampaignResult result = core::run_parallel_campaign(spec, 1);
  ASSERT_FALSE(result.records.empty());
  std::uint64_t ok_outside = 0;
  for (const core::ResultRecord& r : result.records) {
    if (r.round >= 1 && r.round < 3) {
      // Offline rounds fail unconditionally.
      EXPECT_FALSE(r.ok) << "round " << r.round;
    } else {
      ok_outside += r.ok ? 1 : 0;
    }
  }
  // The resolver recovered: rounds outside the window still answer.
  EXPECT_GT(ok_outside, 0u);

  // An identical spec without windows is unaffected by the hook's existence.
  core::MeasurementSpec clean = spec;
  clean.fault_windows.clear();
  const core::CampaignResult clean_result = core::run_parallel_campaign(clean, 1);
  std::uint64_t clean_ok = 0;
  for (const core::ResultRecord& r : clean_result.records) clean_ok += r.ok ? 1 : 0;
  EXPECT_GT(clean_ok, ok_outside);
}

TEST(Monitor, SpecJsonRoundTripAndValidation) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto round = monitor::MonitorSpec::from_json(spec.to_json());
  ASSERT_TRUE(round) << round.error();
  EXPECT_EQ(round.value().epochs, 6);
  ASSERT_EQ(round.value().outages.size(), 1u);
  EXPECT_EQ(round.value().outages[0].to_epoch, 4);

  spec.epochs = 0;
  EXPECT_FALSE(spec.validate());
  spec.epochs = 6;
  spec.outages[0].to_epoch = 2;  // empty window
  EXPECT_FALSE(spec.validate());
}

// The monitor's base spec carries no fault windows, so an outage on a
// resolver outside the watchlist needs its own check; it would do nothing.
TEST(Monitor, SpecRejectsOutageOnUnmeasuredResolver) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.gooogle", 1, 3});
  const auto v = spec.validate();
  ASSERT_FALSE(v);
  EXPECT_NE(v.error().find("dns.gooogle"), std::string::npos) << v.error();
  EXPECT_FALSE(monitor::MonitorSpec::from_json(spec.to_json()));
  EXPECT_FALSE(monitor::run_monitor(spec, 1));

  spec.outages[0].resolver = "ordns.he.net";  // on the watchlist
  EXPECT_TRUE(spec.validate());
}

TEST(Monitor, ScriptedOutageYieldsExactlyOneOutageEvent) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});

  auto result = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(result) << result.error();
  const monitor::MonitorResult& mon = result.value();
  ASSERT_EQ(mon.epochs.size(), 6u);

  std::vector<const monitor::MonitorEvent*> outages;
  for (const monitor::MonitorEvent& e : mon.events) {
    if (e.type == "outage") outages.push_back(&e);
  }
  ASSERT_EQ(outages.size(), 1u) << monitor::events_to_json(mon.events).dump(2);
  EXPECT_EQ(outages[0]->resolver, "dns.google");
  EXPECT_EQ(outages[0]->vantage, "ec2-ohio");
  EXPECT_EQ(outages[0]->start_epoch, 2);
  EXPECT_EQ(outages[0]->end_epoch, 3);  // inclusive: epochs {2, 3} offline

  // The untouched resolver may pick up natural failures from the stochastic
  // failure model (and briefly dip to "degraded"), but it must never be in
  // full outage — that state is reserved for the scripted window.
  for (const monitor::SloSample& s : mon.slos) {
    if (s.resolver == "ordns.he.net") {
      EXPECT_NE(s.state, "outage") << "epoch " << s.epoch;
    }
  }
}

TEST(Monitor, RunIsByteIdenticalAcrossThreadCounts) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.base.vantage_ids = {"ec2-ohio", "ec2-frankfurt"};
  spec.epochs = 3;
  spec.outages.push_back(monitor::OutageScript{"ordns.he.net", 1, 2});

  auto one = monitor::run_monitor(spec, 1);
  auto many = monitor::run_monitor(spec, 8);
  ASSERT_TRUE(one) << one.error();
  ASSERT_TRUE(many) << many.error();
  EXPECT_EQ(one.value().to_json().dump(0), many.value().to_json().dump(0));
  EXPECT_EQ(one.value().series.to_binary(), many.value().series.to_binary());
  EXPECT_EQ(one.value().series.jsonl(), many.value().series.jsonl());
}

TEST(Monitor, ResultJsonRoundTripReproducesEvaluation) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.epochs = 4;
  spec.outages.push_back(monitor::OutageScript{"dns.google", 1, 2});
  auto result = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(result) << result.error();

  auto round = monitor::MonitorResult::from_json(result.value().to_json());
  ASSERT_TRUE(round) << round.error();
  EXPECT_EQ(round.value().to_json().dump(0), result.value().to_json().dump(0));

  // evaluate_result on the decoded series re-derives the same SLOs/events.
  monitor::MonitorResult re = round.value();
  re.slos.clear();
  re.events.clear();
  monitor::evaluate_result(re);
  EXPECT_EQ(re.to_json().dump(0), result.value().to_json().dump(0));
}

TEST(Monitor, PrometheusExposition) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.epochs = 2;
  auto result = monitor::run_monitor(spec, 1);
  ASSERT_TRUE(result) << result.error();

  const std::string text = monitor::to_prometheus(result.value().series);
  EXPECT_NE(text.find("# TYPE ednsm_monitor_queries_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("ednsm_monitor_queries_total{"), std::string::npos);
  EXPECT_NE(text.find("vantage=\"ec2-ohio\""), std::string::npos);
  EXPECT_NE(text.find("resolver=\"dns.google\""), std::string::npos);
  EXPECT_NE(text.find("ednsm_monitor_response_ms{"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("ednsm_monitor_response_ms_count{"), std::string::npos);
  // Deterministic: same series, same bytes.
  EXPECT_EQ(text, monitor::to_prometheus(result.value().series));
}

TEST(Monitor, DashboardRendersSelfContainedHtml) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.epochs = 4;
  spec.outages.push_back(monitor::OutageScript{"dns.google", 1, 3});
  auto result = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(result) << result.error();

  const std::string html = web::render_monitor_dashboard(result.value(), nullptr);
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("Availability heatmap"), std::string::npos);
  EXPECT_NE(html.find("latency bands"), std::string::npos);
  EXPECT_NE(html.find("Event timeline"), std::string::npos);
  EXPECT_NE(html.find("dns.google"), std::string::npos);
  EXPECT_NE(html.find("outage"), std::string::npos);
  // Self-contained: no external fetches.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html, web::render_monitor_dashboard(result.value(), nullptr));
}

TEST(Monitor, RejectsInvalidInputs) {
  monitor::MonitorSpec spec = small_monitor_spec();
  EXPECT_FALSE(monitor::run_monitor(spec, 0));
  spec.base.resolvers.clear();
  EXPECT_FALSE(monitor::run_monitor(spec, 1));
}

// SLO boundary semantics on hand-built series: the outage threshold is a
// strict less-than, windows containing epoch 0 have exact inclusive bounds,
// and flap events bracket the first and last transition exactly.

TEST(Slo, AvailabilityAtOutageThresholdIsNotOutage) {
  // The outage test is a strict less-than. Exercise the boundary with a
  // dyadic threshold (0.25 = 1/4) so "exactly at the threshold" is exact in
  // floating point — 1 - 9/10.0 lands one ULP below 0.10 and would make the
  // default threshold a false boundary probe.
  monitor::SloConfig config;
  config.outage_availability = 0.25;
  obs::TimeSeries ts(1);
  add_epoch(ts, 0, 4, 3, 50.0);  // availability exactly 0.25: NOT an outage
  add_epoch(ts, 1, 4, 4, 50.0);  // 0.0: outage
  add_epoch(ts, 2, 4, 0, 50.0);

  const auto slos = monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 3);
  ASSERT_EQ(slos.size(), 3u);
  EXPECT_DOUBLE_EQ(slos[0].availability, 0.25);
  EXPECT_EQ(slos[0].state, "degraded");  // below the tier floor, above outage
  EXPECT_DOUBLE_EQ(slos[1].availability, 0.0);
  EXPECT_EQ(slos[1].state, "outage");
}

TEST(Slo, DegradationWindowStartingAtEpochZero) {
  monitor::SloConfig config;  // window_epochs = 3
  obs::TimeSeries ts(1);
  add_epoch(ts, 0, 10, 5, 50.0);  // 0.5 availability: degrades its windows
  add_epoch(ts, 1, 10, 0, 50.0);
  add_epoch(ts, 2, 10, 0, 50.0);
  add_epoch(ts, 3, 10, 0, 50.0);

  const auto slos = monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 4);
  ASSERT_EQ(slos.size(), 4u);
  // Epoch 0's failures stay in the rolling window until epoch 2 (inclusive).
  EXPECT_EQ(slos[0].state, "degraded");
  EXPECT_EQ(slos[1].state, "degraded");
  EXPECT_EQ(slos[2].state, "degraded");
  EXPECT_EQ(slos[3].state, "healthy");

  const auto events = monitor::detect_events(slos, config);
  ASSERT_EQ(events.size(), 1u) << monitor::events_to_json(events).dump(2);
  EXPECT_EQ(events[0].type, "degradation");
  EXPECT_EQ(events[0].start_epoch, 0);
  EXPECT_EQ(events[0].end_epoch, 2);
}

TEST(Events, BackToBackFlapsBracketFirstAndLastTransition) {
  monitor::SloConfig config;
  config.window_epochs = 1;  // each epoch judged alone: crisp state per epoch
  obs::TimeSeries ts(1);
  for (int epoch = 0; epoch < 6; ++epoch) {
    // Alternate total outage and full health back to back.
    add_epoch(ts, epoch, 10, epoch % 2 == 0 ? 10 : 0, 50.0);
  }

  const auto slos = monitor::evaluate_slos(ts, config, {"v1"}, {"r1"}, "DoH", 6);
  ASSERT_EQ(slos.size(), 6u);
  for (int epoch = 0; epoch < 6; ++epoch) {
    EXPECT_EQ(slos[static_cast<std::size_t>(epoch)].state,
              epoch % 2 == 0 ? "outage" : "healthy")
        << "epoch " << epoch;
  }

  const auto events = monitor::detect_events(slos, config);
  std::vector<const monitor::MonitorEvent*> flaps;
  std::vector<const monitor::MonitorEvent*> outages;
  for (const monitor::MonitorEvent& e : events) {
    if (e.type == "flap") flaps.push_back(&e);
    if (e.type == "outage") outages.push_back(&e);
  }
  // Three single-epoch outages, each a maximal run with exact bounds.
  ASSERT_EQ(outages.size(), 3u) << monitor::events_to_json(events).dump(2);
  for (std::size_t i = 0; i < outages.size(); ++i) {
    EXPECT_EQ(outages[i]->start_epoch, static_cast<int>(2 * i));
    EXPECT_EQ(outages[i]->end_epoch, static_cast<int>(2 * i));
  }
  // One flap: five transitions, bracketed by the first (epoch 1) and last
  // (epoch 5) state change.
  ASSERT_EQ(flaps.size(), 1u) << monitor::events_to_json(events).dump(2);
  EXPECT_EQ(flaps[0]->transitions, 5);
  EXPECT_EQ(flaps[0]->start_epoch, 1);
  EXPECT_EQ(flaps[0]->end_epoch, 5);
}

TEST(Prom, HostileResolverNameLabelsAreEscaped) {
  obs::TimeSeries ts(1);
  // Quote, backslash, and newline in a label value must all be escaped per
  // the Prometheus text exposition spec.
  const std::string hostile = "ev\"il\\res\nolver";
  ts.add_counter(monitor::kMetricQueries, "v\"1", hostile, "DoH", 0, 3);

  const std::string text = monitor::to_prometheus(ts);
  EXPECT_NE(text.find("resolver=\"ev\\\"il\\\\res\\nolver\""), std::string::npos) << text;
  EXPECT_NE(text.find("vantage=\"v\\\"1\""), std::string::npos) << text;
  // The raw (unescaped) value must not survive anywhere in the exposition:
  // an embedded newline would split a sample line in two.
  EXPECT_EQ(text.find(hostile), std::string::npos) << text;
}

TEST(Prom, RuntimeStaleGaugeFlagsLaggards) {
  auto beat = [](std::size_t k, const char* status, std::uint64_t updated) {
    obs::RuntimeHeartbeat h;
    h.shard_k = k;
    h.shard_n = 3;
    h.status = status;
    h.updated_unix_ms = updated;
    return h;
  };
  const std::vector<obs::RuntimeHeartbeat> fleet = {
      beat(0, "running", 10'000),  // lags the fleet by 90 s: stale
      beat(1, "running", 100'000),
      beat(2, "done", 5'000),  // terminal shards are never stale
  };

  EXPECT_EQ(monitor::fleet_latest_update_ms(fleet), 100'000u);
  EXPECT_EQ(monitor::fleet_latest_update_ms({}), 0u);
  EXPECT_TRUE(monitor::heartbeat_is_stale(fleet[0], 100'000, 50'000));
  // The threshold is a strict greater-than: a lag of exactly stale_after_ms
  // is still fresh.
  EXPECT_FALSE(monitor::heartbeat_is_stale(fleet[0], 100'000, 90'000));
  EXPECT_FALSE(monitor::heartbeat_is_stale(fleet[1], 100'000, 50'000));
  EXPECT_FALSE(monitor::heartbeat_is_stale(fleet[2], 100'000, 50'000));

  const std::string text = monitor::to_prometheus(fleet, 50'000);
  EXPECT_NE(text.find("# TYPE ednsm_runtime_stale gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("ednsm_runtime_stale{shard=\"0/3\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("ednsm_runtime_stale{shard=\"1/3\"} 0"), std::string::npos) << text;
  EXPECT_NE(text.find("ednsm_runtime_stale{shard=\"2/3\"} 0"), std::string::npos) << text;

  // Without a threshold the gauge is absent entirely.
  EXPECT_EQ(monitor::to_prometheus(fleet).find("ednsm_runtime_stale"), std::string::npos);
}

// Diagnosis engine: read the run's stored evidence for the scripted outage
// and attribute it.

TEST(Diagnose, ScriptedOutageAttributedToResolverOutage) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto result = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(result) << result.error();

  auto report = monitor::diagnose_events(result.value(), 2);
  ASSERT_TRUE(report) << report.error();
  ASSERT_EQ(report.value().diagnoses.size(), result.value().events.size());

  const monitor::Diagnosis* outage = nullptr;
  for (const monitor::Diagnosis& d : report.value().diagnoses) {
    if (d.event.type == "outage") {
      ASSERT_EQ(outage, nullptr) << "expected exactly one outage diagnosis";
      outage = &d;
    }
  }
  ASSERT_NE(outage, nullptr);
  EXPECT_EQ(outage->event.resolver, "dns.google");
  EXPECT_EQ(outage->event.start_epoch, 2);
  EXPECT_EQ(outage->event.end_epoch, 3);

  // Every query in the scripted window failed at connect.
  EXPECT_EQ(outage->dominant_stage, "connect");
  EXPECT_GT(outage->stages.connect, 0u);
  EXPECT_EQ(outage->stages.total(), outage->window.failures);
  EXPECT_DOUBLE_EQ(outage->window.availability, 0.0);

  // Baseline covers the healthy epochs before the event and was clean.
  EXPECT_EQ(outage->baseline_from, 0);
  EXPECT_EQ(outage->baseline_to, 1);
  EXPECT_GT(outage->baseline.queries, 0u);
  EXPECT_GT(outage->baseline.availability, 0.9);

  // The spec has one vantage, so the blast radius is single-vantage.
  EXPECT_EQ(outage->scope.classification, "single-vantage");
  EXPECT_EQ(outage->scope.vantages_observed, 1);
  ASSERT_EQ(outage->scope.affected_vantages.size(), 1u);
  EXPECT_EQ(outage->scope.affected_vantages[0], "ec2-ohio");

  // Top-ranked verdict: resolver outage, backed by the connect failures.
  ASSERT_FALSE(outage->verdicts.empty());
  EXPECT_EQ(outage->verdicts[0].cause, "resolver-outage");
  EXPECT_GT(outage->verdicts[0].score, 0.5);
  EXPECT_EQ(outage->verdicts[0].evidence, outage->stages.connect + outage->stages.timeout);
  for (std::size_t i = 1; i < outage->verdicts.size(); ++i) {
    EXPECT_GE(outage->verdicts[0].score, outage->verdicts[i].score);
  }

  // Exemplars cite concrete failed queries inside the window, with flight
  // recorder refs naming the resolver.
  ASSERT_FALSE(outage->exemplars.empty());
  for (const obs::Exemplar& x : outage->exemplars) {
    EXPECT_FALSE(x.ok);
    EXPECT_GE(x.epoch, 2);
    EXPECT_LE(x.epoch, 3);
    EXPECT_EQ(x.failure_stage, "connect");
    EXPECT_NE(x.flight_ref.find("dns.google"), std::string::npos) << x.flight_ref;
  }

  // Plain-text rendering mentions the verdict.
  const std::string text = monitor::render_diagnosis_report(report.value());
  EXPECT_NE(text.find("resolver-outage"), std::string::npos) << text;
  EXPECT_NE(text.find("dns.google"), std::string::npos);
}

// The bytes `ednsm_monitor diagnose --json --out` writes.
std::string diagnosis_bytes(const monitor::MonitorResult& result) {
  auto report = monitor::diagnose_events(result, 1);
  EXPECT_TRUE(report) << report.error();
  return report ? report.value().to_json().dump(2) + "\n" : std::string();
}

TEST(Diagnose, ReportByteIdenticalAcrossThreadCounts) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.base.vantage_ids = {"ec2-ohio", "ec2-frankfurt"};
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto one = monitor::run_monitor(spec, 1);
  auto many = monitor::run_monitor(spec, 8);
  ASSERT_TRUE(one) << one.error();
  ASSERT_TRUE(many) << many.error();

  // The evidence is recorded while the run folds its epochs, so the worker
  // count must not reach it, nor the diagnosis read from it.
  ASSERT_FALSE(one.value().evidence.empty());
  EXPECT_EQ(one.value().to_json().at("evidence"), many.value().to_json().at("evidence"));
  const std::string bytes = diagnosis_bytes(one.value());
  EXPECT_NE(bytes.find("resolver-outage"), std::string::npos);
  EXPECT_EQ(bytes, diagnosis_bytes(many.value()));
}

TEST(Diagnose, PersistedResultDiagnosesIdentically) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto run = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(run) << run.error();

  std::ostringstream os;
  run.value().write_json(os);
  auto parsed = util::Json::parse(os.str());
  ASSERT_TRUE(parsed) << parsed.error();
  auto loaded = monitor::MonitorResult::from_json(parsed.value());
  ASSERT_TRUE(loaded) << loaded.error();
  EXPECT_EQ(loaded.value().evidence.size(), run.value().evidence.size());
  EXPECT_EQ(diagnosis_bytes(loaded.value()), diagnosis_bytes(run.value()));
}

TEST(Diagnose, RejectsEvidenceThatDoesNotCoverTheRun) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto run = monitor::run_monitor(spec, 1);
  ASSERT_TRUE(run) << run.error();
  const monitor::MonitorResult& good = run.value();
  ASSERT_TRUE(monitor::diagnose_events(good, 1));
  std::uint64_t queries = 0;
  for (const monitor::EpochSummary& e : good.epochs) queries += e.queries;
  ASSERT_EQ(good.evidence.size(), queries);

  const auto rejects = [](const monitor::MonitorResult& result) {
    auto report = monitor::diagnose_events(result, 1);
    if (report) return false;
    EXPECT_NE(report.error().find("evidence"), std::string::npos) << report.error();
    return true;
  };
  monitor::MonitorResult cleared = good;
  cleared.evidence.clear();
  EXPECT_TRUE(rejects(cleared));
  monitor::MonitorResult dropped = good;
  dropped.evidence.erase(dropped.evidence.begin() + 5);
  EXPECT_TRUE(rejects(dropped));
  monitor::MonitorResult moved = good;
  moved.evidence.front().epoch = 1;  // epoch 0 loses a row, epoch 1 gains one
  EXPECT_TRUE(rejects(moved));

  // The codec rejects a wrong-typed field and an epoch outside the run.
  const util::Json j = good.to_json();
  const auto with_first_row = [&j](const std::string& key, util::Json value) {
    util::Json copy = j;
    copy.as_object()["evidence"].as_array().front().as_object()[key] = std::move(value);
    return monitor::MonitorResult::from_json(copy);
  };
  ASSERT_TRUE(with_first_row("epoch", util::Json(0)));
  EXPECT_FALSE(with_first_row("ok", util::Json("true")));
  EXPECT_FALSE(with_first_row("response_ms", util::Json("12.5")));
  EXPECT_FALSE(with_first_row("domain", util::Json(7)));
  EXPECT_FALSE(with_first_row("round", util::Json(0.5)));
  EXPECT_FALSE(with_first_row("epoch", util::Json(spec.epochs)));
  EXPECT_FALSE(with_first_row("epoch", util::Json(-1)));
  util::Json not_array = j;
  not_array.as_object()["evidence"] = util::Json(util::JsonObject{});
  EXPECT_FALSE(monitor::MonitorResult::from_json(not_array));
}

TEST(Diagnose, ReportCodecRoundTripsAndChecksVersion) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto result = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(result) << result.error();
  auto report = monitor::diagnose_events(result.value(), 2);
  ASSERT_TRUE(report) << report.error();

  auto round = monitor::DiagnosisReport::from_json(report.value().to_json());
  ASSERT_TRUE(round) << round.error();
  EXPECT_EQ(round.value().to_json().dump(0), report.value().to_json().dump(0));

  util::Json j = report.value().to_json();
  j.as_object()["version"] = util::Json(99);
  EXPECT_FALSE(monitor::DiagnosisReport::from_json(j));
}

TEST(Diagnose, RejectsInvalidInputs) {
  monitor::MonitorSpec spec = small_monitor_spec();
  auto result = monitor::run_monitor(spec, 1);
  ASSERT_TRUE(result) << result.error();

  EXPECT_FALSE(monitor::diagnose_events(result.value(), 0));
  monitor::DiagnoseOptions opts;
  opts.baseline_epochs = 0;
  EXPECT_FALSE(monitor::diagnose_events(result.value(), 1, opts));
}

TEST(Diagnose, DashboardRendersDiagnosesSection) {
  monitor::MonitorSpec spec = small_monitor_spec();
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto result = monitor::run_monitor(spec, 2);
  ASSERT_TRUE(result) << result.error();
  auto report = monitor::diagnose_events(result.value(), 2);
  ASSERT_TRUE(report) << report.error();

  const std::string html =
      web::render_monitor_dashboard(result.value(), &report.value());
  EXPECT_NE(html.find("Diagnoses"), std::string::npos);
  EXPECT_NE(html.find("resolver-outage"), std::string::npos);
  // Still self-contained with the extra section.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

}  // namespace
