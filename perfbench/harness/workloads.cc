#include "workloads.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/parallel_campaign.h"
#include "core/pipeline.h"
#include "core/world.h"
#include "geo/vantage.h"
#include "monitor/diagnose.h"
#include "monitor/monitor.h"
#include "obs/runtime.h"
#include "resolver/registry.h"

namespace perfbench {

namespace {

using namespace ednsm;

// Rounds per vantage of the campaign workloads. The paper's Fig. 2 campaign
// runs 30; a third of that keeps the per-query mix and makes jobs short
// enough for many of them to fit in a run (see perfbench/README.md).
constexpr int kRounds = 10;
constexpr int kLayerPasses = 3;
// Subsystems the program's tracer emits under (the "cat" of its events).
const std::vector<std::string> kTraceSubsystems = {"client",   "core",     "http",
                                                   "netsim",   "resolver", "transport"};

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e6; }

std::string to_text(const core::CampaignResult& r) {
  std::ostringstream os;
  r.write_json(os);
  return std::move(os).str();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void time_part(std::map<std::string, double>& parts, const std::string& name, std::int64_t t0) {
  parts[name] += ms_between(t0, now_ns());
}

// Every record of a result: phases stamped by the transports never exceed
// the response time they decompose.
std::string check_records(const core::CampaignResult& r, std::size_t expected) {
  if (r.records.size() != expected) {
    return "record count " + std::to_string(r.records.size()) + " != expected " +
           std::to_string(expected);
  }
  for (const core::ResultRecord& rec : r.records) {
    const double phases = rec.tcp_handshake_ms + rec.tls_handshake_ms + rec.quic_handshake_ms +
                          rec.pool_wait_ms + rec.exchange_ms;
    if (phases > rec.response_ms + 1e-6) {
      return "phase_sum " + std::to_string(phases) + " ms > total " +
             std::to_string(rec.response_ms) + " ms (" + rec.vantage + " " + rec.resolver + ")";
    }
  }
  return "";
}

std::string check_round_trip(const std::string& text) {
  auto parsed = util::Json::parse(text);
  if (!parsed) return "results JSON does not parse: " + parsed.error();
  auto back = core::CampaignResult::from_json(parsed.value());
  if (!back) return "results JSON does not load: " + back.error();
  if (to_text(back.value()) != text) return "results JSON does not re-dump byte-identically";
  return "";
}

// Sim-side counters the program's obs::Metrics collects per shard, summed.
struct SimCounters {
  double events = 0, sent = 0, dropped = 0, fresh = 0, reused = 0, acquires = 0,
         handshake_failures = 0, resolver_queries = 0, cache_hits = 0, warm_hits = 0,
         servfails = 0;

  void add(const obs::Metrics& m) {
    events += static_cast<double>(m.counter("netsim.events_executed"));
    sent += static_cast<double>(m.counter("netsim.datagrams_sent"));
    dropped += static_cast<double>(m.counter("netsim.datagrams_dropped"));
    fresh += static_cast<double>(m.counter("transport.pool_fresh"));
    reused += static_cast<double>(m.counter("transport.pool_reused"));
    acquires += static_cast<double>(m.counter("transport.pool_acquires"));
    handshake_failures += static_cast<double>(m.counter("transport.pool_handshake_failures"));
    resolver_queries += static_cast<double>(m.counter("resolver.queries"));
    cache_hits += static_cast<double>(m.counter("resolver.cache_hits"));
    warm_hits += static_cast<double>(m.counter("resolver.warm_hits"));
    servfails += static_cast<double>(m.counter("resolver.servfails"));
  }

  void report(LayerValues& out, double queries) const {
    out["netsim.events_per_query"] = ratio(events, queries);
    out["netsim.datagrams_per_query"] = ratio(sent, queries);
    out["netsim.drop_ratio"] = ratio(dropped, sent);
    out["transport.fresh_per_query"] = ratio(fresh, queries);
    out["transport.reuse_ratio"] = ratio(reused, acquires);
    out["transport.handshake_failures"] = handshake_failures;
    out["resolver.cache_hit_ratio"] = ratio(cache_hits + warm_hits, resolver_queries);
    out["resolver.servfails"] = servfails;
  }
};

// Trace events per subsystem over drained shard traces.
struct TraceCounts {
  std::map<std::string, double> by_subsystem;
  double dropped = 0;

  void add(const obs::TraceData& t) {
    for (const obs::TraceEvent& e : t.events) by_subsystem[t.symbols.name(e.subsystem)] += 1;
    dropped += static_cast<double>(t.dropped);
  }

  void report(LayerValues& out, double queries) const {
    for (const std::string& s : kTraceSubsystems) {
      const auto it = by_subsystem.find(s);
      out["trace." + s + "_spans_per_query"] =
          ratio(it == by_subsystem.end() ? 0.0 : it->second, queries);
    }
    out["trace.dropped"] = dropped;
  }
};

// The layer pass over a list of campaigns (one for the campaign workloads,
// one per epoch for the monitor). Pass 0 is the spec's own observability
// plus metrics; every pass times each call. When the workload does not trace,
// a trace probe then re-runs the shards with the program's tracer on to
// measure that layer too; simulation results are identical either way.
struct LayerPass {
  std::vector<double> shard_ms;  // per plan, median over passes
  double collect_ms = 0, encode_ms = 0, metrics_write_ms = 0, trace_write_ms = 0;
  double queries = 0, encode_bytes = 0, trace_bytes = 0;  // one record per query
  double sim_allocs = 0, sim_alloc_bytes = 0, encode_allocs = 0;
  SimCounters sim;
  TraceCounts trace;
};

// Runs f() under a span and returns a copy of the closed span.
template <typename F>
Span in_span(SpanRecorder& spans, const char* name, int job, F&& f) {
  const int i = spans.open(name, job);
  f();
  spans.close(i);
  return spans.spans()[static_cast<std::size_t>(i)];
}

LayerPass run_layer_pass(SpanRecorder& spans, int first_job,
                         const std::vector<core::MeasurementSpec>& campaigns, bool program_trace) {
  LayerPass out;
  std::vector<std::vector<double>> shard_samples;
  std::vector<double> collect, encode, metrics_write, trace_write;
  set_alloc_counting(true);
  for (int pass = 0; pass < kLayerPasses; ++pass) {
    const int job = first_job + pass;
    SpanScope whole(&spans, "layer_pass", job);
    double c = 0, e = 0, mw = 0, tw = 0;
    std::size_t plan_no = 0;
    for (const core::MeasurementSpec& spec : campaigns) {
      core::CampaignObsOptions obs;
      obs.metrics = true;
      obs.trace = program_trace;
      std::vector<core::ShardPlan> plans;
      (void)in_span(spans, "core.expand_spec", job, [&] { plans = core::expand_spec(spec); });
      core::ShardCollector collector(spec, plans.size(), obs);
      for (const core::ShardPlan& plan : plans) {
        core::ShardOutcome outcome;
        const Span sim = in_span(spans, "core.run_shard", job,
                                 [&] { outcome = core::run_shard(spec, plan, obs); });
        if (shard_samples.size() <= plan_no) shard_samples.emplace_back();
        shard_samples[plan_no++].push_back(sim.ms());
        if (pass == 0) {
          out.sim_allocs += static_cast<double>(sim.alloc_own.calls);
          out.sim_alloc_bytes += static_cast<double>(sim.alloc_own.bytes);
          out.sim.add(outcome.metrics);
          if (program_trace) out.trace.add(outcome.trace);
        }
        c += in_span(spans, "core.collect_add", job, [&] {
               if (auto added = collector.add(std::move(outcome)); !added) {
                 throw std::runtime_error("collector.add: " + added.error());
               }
             }).ms();
      }
      core::CampaignObsData data;
      core::CampaignResult result;
      c += in_span(spans, "core.collect_finish", job, [&] { result = collector.finish(&data); })
               .ms();
      std::string text;
      const Span enc = in_span(spans, "output.results_json", job, [&] { text = to_text(result); });
      e += enc.ms();
      mw += in_span(spans, "obs.metrics_jsonl", job, [&] { (void)data.metrics.jsonl(); }).ms();
      if (program_trace) {
        std::string chrome;
        tw += in_span(spans, "obs.trace_json", job, [&] { chrome = data.trace.chrome_json(); })
                  .ms();
        if (pass == 0) out.trace_bytes += static_cast<double>(chrome.size());
      }
      if (pass == 0) {
        out.queries += static_cast<double>(result.records.size());
        out.encode_bytes += static_cast<double>(text.size());
        out.encode_allocs += static_cast<double>(enc.alloc_own.calls);
      }
    }
    collect.push_back(c);
    encode.push_back(e);
    metrics_write.push_back(mw);
    if (program_trace) trace_write.push_back(tw);
  }

  if (!program_trace) {
    const int job = first_job + kLayerPasses;
    SpanScope whole(&spans, "trace_probe", job);
    double tw = 0;
    for (const core::MeasurementSpec& spec : campaigns) {
      core::CampaignObsOptions obs;
      obs.trace = true;
      obs::MergedTrace merged;
      for (const core::ShardPlan& plan : core::expand_spec(spec)) {
        core::ShardOutcome outcome = core::run_shard(spec, plan, obs);
        out.trace.add(outcome.trace);
        merged.add_shard("vantage/" + plan.vantage, std::move(outcome.trace));
      }
      std::string chrome;
      tw += in_span(spans, "obs.trace_json", job, [&] { chrome = merged.chrome_json(); }).ms();
      out.trace_bytes += static_cast<double>(chrome.size());
    }
    trace_write.push_back(tw);
  }
  set_alloc_counting(false);

  for (const auto& samples : shard_samples) out.shard_ms.push_back(median(samples));
  out.collect_ms = median(collect);
  out.encode_ms = median(encode);
  out.metrics_write_ms = median(metrics_write);
  out.trace_write_ms = median(trace_write);
  return out;
}

void report_layer_pass(const LayerPass& p, LayerValues& out) {
  double sum = 0, mx = 0;
  for (const double v : p.shard_ms) {
    sum += v;
    mx = std::max(mx, v);
  }
  out["core.shard_ms_max"] = mx;
  out["core.shard_ms_mean"] = ratio(sum, static_cast<double>(p.shard_ms.size()));
  out["core.collect_ms"] = p.collect_ms;
  p.sim.report(out, p.queries);
  p.trace.report(out, p.queries);
  out["alloc.sim_per_query"] = ratio(p.sim_allocs, p.queries);
  out["alloc.sim_bytes_per_query"] = ratio(p.sim_alloc_bytes, p.queries);
  out["alloc.encode_per_record"] = ratio(p.encode_allocs, p.queries);
  out["output.encode_ms"] = p.encode_ms;
  out["output.bytes_per_record"] = ratio(p.encode_bytes, p.queries);
  out["output.encode_mb_per_s"] = ratio(p.encode_bytes / 1e6, p.encode_ms / 1e3);
  out["obs.trace_write_ms"] = p.trace_write_ms;
  out["obs.trace_bytes"] = p.trace_bytes;
  out["obs.metrics_write_ms"] = p.metrics_write_ms;
}

// -- fig2-cold and warm-observed ---------------------------------------------

struct CampaignConfig {
  client::Protocol protocol;
  transport::ReusePolicy reuse;
  netsim::SimDuration round_interval;
  int threads;
  bool program_obs;  // the job itself runs the program's tracer and metrics
};

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(CampaignConfig config, std::uint64_t seed) : config_(config), seed_(seed) {}

  void set_up(std::map<std::string, double>& parts) override {
    core::MeasurementSpec spec;
    std::int64_t t = now_ns();
    for (const resolver::ResolverSpec& r : resolver::paper_resolver_list()) {
      spec.resolvers.push_back(r.hostname);
    }
    time_part(parts, "registry", t);
    t = now_ns();
    for (const char* id : {"home-chicago-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul"}) {
      spec.vantage_ids.push_back(geo::vantage_by_id(id).id);
    }
    time_part(parts, "vantages", t);
    spec.protocol = config_.protocol;
    spec.query_options.reuse = config_.reuse;
    spec.round_interval = config_.round_interval;
    spec.rounds = kRounds;
    spec.seed = seed_;
    t = now_ns();
    if (auto v = spec.validate(); !v) throw std::invalid_argument("invalid spec: " + v.error());
    time_part(parts, "validate", t);
    t = now_ns();
    const std::vector<core::ShardPlan> plans = core::expand_spec(spec);
    time_part(parts, "expand_spec", t);
    t = now_ns();
    { const core::SimWorld world(plans.front().seed); }
    time_part(parts, "first_simworld", t);
    spec_ = std::move(spec);
  }

  void drop_outputs() override {
    result_ = {};
    results_json_ = {};
    trace_json_ = {};
    metrics_jsonl_ = {};
  }

  JobTimes run_job(SpanRecorder* spans, int job) override {
    const bool traced = spans != nullptr;
    core::CampaignObsOptions obs;
    obs.trace = config_.program_obs;
    obs.metrics = config_.program_obs || traced;
    obs::RuntimeTelemetry runtime;
    if (traced) obs.runtime = &runtime;
    core::CampaignObsData data;
    const bool want_obs = obs.trace || obs.metrics;
    set_alloc_counting(traced);

    JobTimes t;
    const std::int64_t t0 = now_ns();
    {
      SpanScope job_span(spans, "job", job);
      {
        SpanScope s(spans, "core.run_parallel_campaign", job);
        result_ = core::run_parallel_campaign(spec_, config_.threads, obs,
                                              want_obs ? &data : nullptr);
      }
      const std::int64_t t1 = now_ns();
      {
        SpanScope s(spans, "output.results_json", job);
        results_json_ = to_text(result_);
      }
      if (config_.program_obs) {
        {
          SpanScope s(spans, "obs.trace_json", job);
          trace_json_ = data.trace.chrome_json();
        }
        SpanScope s(spans, "obs.metrics_jsonl", job);
        metrics_jsonl_ = data.metrics.jsonl();
      }
      const std::int64_t t2 = now_ns();
      t.job_ms = ms_between(t0, t2);
      t.rate_ms = t.job_ms;
      t.report_ms = ms_between(t1, t2);
      t.queries = result_.records.size();
    }
    set_alloc_counting(false);

    if (traced) {
      const obs::RuntimeHeartbeat hb = runtime.snapshot_runtime("done");
      double pushes = 0, idle = 0;
      for (const obs::RuntimeStageSnapshot& st : hb.stages) {
        if (st.stage == "expand") pushes += static_cast<double>(st.items_out);
        if (st.stage == "collect") {
          pushes += static_cast<double>(st.items_in);
          idle += static_cast<double>(st.stall_spins);
        }
      }
      ring_pushes_per_query_.push_back(ratio(pushes, static_cast<double>(t.queries)));
      collector_idle_spins_.push_back(idle);
    }
    return t;
  }

  [[nodiscard]] std::string check_job(std::uint64_t& digest) const override {
    const std::size_t expected = spec_.resolvers.size() * spec_.vantage_ids.size() *
                                 static_cast<std::size_t>(spec_.rounds) * spec_.domains.size();
    std::string err = check_records(result_, expected);
    digest = fnv1a(results_json_);
    if (config_.program_obs) digest = fnv1a(metrics_jsonl_, fnv1a(trace_json_, digest));
    return err;
  }

  [[nodiscard]] std::string check_run() override {
    std::string err = check_round_trip(results_json_);
    if (!err.empty() || config_.threads == 1) return err;
    // The outputs must not depend on the thread count.
    core::CampaignObsOptions obs;
    obs.trace = config_.program_obs;
    obs.metrics = config_.program_obs;
    core::CampaignObsData data;
    const core::CampaignResult serial =
        core::run_parallel_campaign(spec_, 1, obs, config_.program_obs ? &data : nullptr);
    if (to_text(serial) != results_json_) return "results differ from the threads-1 run";
    if (config_.program_obs && (data.trace.chrome_json() != trace_json_ ||
                                data.metrics.jsonl() != metrics_jsonl_)) {
      return "trace or metrics differ from the threads-1 run";
    }
    return "";
  }

  [[nodiscard]] LayerValues layers(SpanRecorder& spans, int first_job) override {
    LayerValues out;
    report_layer_pass(run_layer_pass(spans, first_job, {spec_}, config_.program_obs), out);
    out["pipeline.ring_pushes_per_query"] = median(ring_pushes_per_query_);
    out["pipeline.collector_idle_spins"] = median(collector_idle_spins_);
    // Counts of the monitor layer, which this workload does not run.
    out["monitor.events"] = 0;
    out["obs.timeseries_points"] = 0;
    out["obs.edts_bytes"] = 0;
    return out;
  }

 private:
  CampaignConfig config_;
  std::uint64_t seed_;
  core::MeasurementSpec spec_;
  core::CampaignResult result_;
  std::string results_json_, trace_json_, metrics_jsonl_;
  std::vector<double> ring_pushes_per_query_, collector_idle_spins_;
};

// -- monitor-quarter -----------------------------------------------------------

constexpr int kEpochs = 90;
const char* const kOutageResolver = "kronos.plan9-dns.com";

class MonitorWorkload final : public Workload {
 public:
  explicit MonitorWorkload(std::uint64_t seed) : seed_(seed) {}

  void set_up(std::map<std::string, double>& parts) override {
    monitor::MonitorSpec spec;
    std::int64_t t = now_ns();
    // bench_monitor's watchlist: every operator tier.
    for (const char* host : {"dns.google", "security.cloudflare-dns.com", "dns.quad9.net",
                             "ordns.he.net", "freedns.controld.com", "doh.ffmuc.net",
                             kOutageResolver}) {
      const resolver::ResolverSpec* r = resolver::find_resolver(host);
      if (r == nullptr) throw std::invalid_argument(std::string("not in registry: ") + host);
      spec.base.resolvers.push_back(r->hostname);
    }
    time_part(parts, "registry", t);
    t = now_ns();
    spec.base.vantage_ids = {geo::vantage_by_id("ec2-ohio").id};
    time_part(parts, "vantages", t);
    spec.base.rounds = 3;
    spec.base.seed = seed_;
    spec.epochs = kEpochs;
    spec.outages.push_back(monitor::OutageScript{kOutageResolver, 12, 15});
    t = now_ns();
    if (auto v = spec.validate(); !v) throw std::invalid_argument("invalid spec: " + v.error());
    time_part(parts, "validate", t);
    t = now_ns();
    const core::MeasurementSpec first =
        monitor::epoch_campaign_spec(spec, core::shard_seeds(seed_, 1).front(), 0);
    const std::vector<core::ShardPlan> plans = core::expand_spec(first);
    time_part(parts, "expand_spec", t);
    t = now_ns();
    { const core::SimWorld world(plans.front().seed); }
    time_part(parts, "first_simworld", t);
    spec_ = std::move(spec);
  }

  void drop_outputs() override {
    result_ = monitor::MonitorResult();
    diagnosis_ = monitor::DiagnosisReport();
  }

  JobTimes run_job(SpanRecorder* spans, int job) override {
    set_alloc_counting(spans != nullptr);
    JobTimes t;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    {
      SpanScope job_span(spans, "job", job);
      {
        SpanScope s(spans, "monitor.run_monitor", job);
        auto run = monitor::run_monitor(spec_, 1);
        if (!run) throw std::runtime_error("run_monitor: " + run.error());
        result_ = std::move(run).value();
      }
      t1 = now_ns();
      SpanScope s(spans, "monitor.diagnose_events", job);
      auto diag = monitor::diagnose_events(result_, 1);
      if (!diag) throw std::runtime_error("diagnose_events: " + diag.error());
      diagnosis_ = std::move(diag).value();
    }
    const std::int64_t t2 = now_ns();
    set_alloc_counting(false);
    t.job_ms = ms_between(t0, t2);
    t.rate_ms = ms_between(t0, t1);
    t.report_ms = ms_between(t1, t2);
    for (const monitor::EpochSummary& e : result_.epochs) t.queries += e.queries;

    if (spans != nullptr) {
      // Layers the job reaches only inside run_monitor, called on their own.
      monitor::MonitorResult copy = result_;
      {
        SpanScope s(spans, "monitor.evaluate_result", job);
        monitor::evaluate_result(copy);
      }
      SpanScope s(spans, "obs.edts_encode", job);
      edts_bytes_ = static_cast<double>(result_.series.to_binary().size());
    }
    return t;
  }

  [[nodiscard]] std::string check_job(std::uint64_t& digest) const override {
    std::string err;
    const std::uint64_t per_epoch = spec_.base.resolvers.size() * spec_.base.vantage_ids.size() *
                                    static_cast<std::uint64_t>(spec_.base.rounds) *
                                    spec_.base.domains.size();
    if (result_.epochs.size() != static_cast<std::size_t>(kEpochs)) {
      err = "epoch count " + std::to_string(result_.epochs.size());
    }
    for (const monitor::EpochSummary& e : result_.epochs) {
      if (err.empty() && e.queries != per_epoch) {
        err = "epoch " + std::to_string(e.epoch) + " ran " + std::to_string(e.queries) +
              " queries, expected " + std::to_string(per_epoch);
      }
    }
    if (err.empty()) err = check_outage_diagnosis();
    std::ostringstream os;
    result_.write_json(os);
    diagnosis_.write_json(os);
    digest = fnv1a(os.str());
    return err;
  }

  [[nodiscard]] std::string check_run() override {
    std::ostringstream os;
    result_.write_json(os);
    auto parsed = util::Json::parse(os.str());
    if (!parsed) return "monitor JSON does not parse: " + parsed.error();
    auto back = monitor::MonitorResult::from_json(parsed.value());
    if (!back) return "monitor JSON does not load: " + back.error();
    std::ostringstream again;
    back.value().write_json(again);
    if (again.str() != os.str()) return "monitor JSON does not re-dump byte-identically";
    const util::Bytes edts = result_.series.to_binary();
    auto series = obs::TimeSeries::from_binary(edts);
    if (!series || series.value().to_binary() != edts) return "EDTS round trip differs";
    return "";
  }

  [[nodiscard]] LayerValues layers(SpanRecorder& spans, int first_job) override {
    // The epochs' campaigns, composed as run_monitor composes them.
    std::vector<core::MeasurementSpec> campaigns;
    const std::vector<std::uint64_t> seeds =
        core::shard_seeds(spec_.base.seed, static_cast<std::size_t>(spec_.epochs));
    for (int e = 0; e < spec_.epochs; ++e) {
      campaigns.push_back(
          monitor::epoch_campaign_spec(spec_, seeds[static_cast<std::size_t>(e)], e));
    }
    LayerValues out;
    report_layer_pass(run_layer_pass(spans, first_job, campaigns, false), out);
    out["pipeline.ring_pushes_per_query"] = 0;  // threads 1: the pipeline runs inline
    out["pipeline.collector_idle_spins"] = 0;
    out["obs.timeseries_points"] = static_cast<double>(result_.series.size());
    out["obs.edts_bytes"] = edts_bytes_;
    out["monitor.events"] = static_cast<double>(result_.events.size());

    std::vector<double> run, evaluate, diagnose, edts;
    for (const Span& s : spans.spans()) {
      if (s.name == "monitor.run_monitor") run.push_back(s.ms() / spec_.epochs);
      if (s.name == "monitor.evaluate_result") evaluate.push_back(s.ms());
      if (s.name == "monitor.diagnose_events") {
        diagnose.push_back(ratio(s.ms(), static_cast<double>(result_.events.size())));
      }
      if (s.name == "obs.edts_encode") edts.push_back(s.ms());
    }
    out["monitor.run_ms_per_epoch"] = median(run);
    out["monitor.evaluate_ms"] = median(evaluate);
    out["monitor.diagnose_ms_per_event"] = median(diagnose);
    out["obs.edts_encode_ms"] = median(edts);
    return out;
  }

 private:
  // The scripted kronos outage (epochs 12..14) must be reported as one
  // outage event whose diagnosis blames the resolver at the connect stage.
  [[nodiscard]] std::string check_outage_diagnosis() const {
    if (diagnosis_.diagnoses.size() != result_.events.size()) {
      return "diagnoses do not match events";
    }
    for (std::size_t i = 0; i < result_.events.size(); ++i) {
      const monitor::MonitorEvent& ev = result_.events[i];
      if (ev.type != "outage" || ev.resolver != kOutageResolver) continue;
      if (ev.start_epoch != 12 || ev.end_epoch != 14) {
        return "kronos outage at epochs [" + std::to_string(ev.start_epoch) + "," +
               std::to_string(ev.end_epoch) + "], expected [12,14]";
      }
      const monitor::Diagnosis& d = diagnosis_.diagnoses[i];
      if (d.verdicts.empty() || d.verdicts.front().cause != "resolver-outage") {
        return "kronos outage verdict is not resolver-outage";
      }
      if (d.dominant_stage != "connect") {
        return "kronos outage stage is '" + d.dominant_stage + "', expected connect";
      }
      return "";
    }
    return "no kronos outage event";
  }

  std::uint64_t seed_;
  monitor::MonitorSpec spec_;
  monitor::MonitorResult result_;
  monitor::DiagnosisReport diagnosis_;
  double edts_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig2-cold") {
    return std::make_unique<CampaignWorkload>(
        CampaignConfig{client::Protocol::DoH, transport::ReusePolicy::None,
                       std::chrono::hours(8), 1, false},
        seed);
  }
  if (name == "warm-observed") {
    return std::make_unique<CampaignWorkload>(
        CampaignConfig{client::Protocol::DoT, transport::ReusePolicy::Keepalive,
                       std::chrono::seconds(60), 2, true},
        seed);
  }
  if (name == "monitor-quarter") return std::make_unique<MonitorWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
