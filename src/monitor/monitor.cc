#include "monitor/monitor.h"

#include <algorithm>
#include <ostream>

namespace ednsm::monitor {

namespace {

obs::QueryEvidence evidence_row(const core::ResultRecord& r, int epoch) {
  obs::QueryEvidence row;
  row.vantage = r.vantage;
  row.resolver = r.resolver;
  row.domain = r.domain;
  row.epoch = epoch;
  row.round = r.round;
  row.ok = r.ok;
  row.reused = r.connection_reused;
  row.response_ms = r.response_ms;
  row.tcp_ms = r.tcp_handshake_ms;
  row.tls_ms = r.tls_handshake_ms;
  row.quic_ms = r.quic_handshake_ms;
  row.wait_ms = r.pool_wait_ms;
  row.exchange_ms = r.exchange_ms;
  row.failure_stage = r.failure_stage;
  row.error_class = r.error_class;
  return row;
}

}  // namespace

util::Json OutageScript::to_json() const {
  util::JsonObject o;
  o["resolver"] = resolver;
  o["from_epoch"] = from_epoch;
  o["to_epoch"] = to_epoch;
  return util::Json(std::move(o));
}

Result<OutageScript> OutageScript::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("outage script: not an object")};
  OutageScript s;
  if (!j.at("resolver").is_string() || !j.at("from_epoch").is_number() ||
      !j.at("to_epoch").is_number()) {
    return Err{std::string("outage script: missing required fields")};
  }
  s.resolver = j.at("resolver").as_string();
  s.from_epoch = static_cast<int>(j.at("from_epoch").as_number());
  s.to_epoch = static_cast<int>(j.at("to_epoch").as_number());
  return s;
}

Result<void> MonitorSpec::validate() const {
  if (auto v = base.validate(); !v) return Err{v.error()};
  if (epochs < 1) return Err{std::string("monitor: epochs must be >= 1")};
  if (auto v = slo.validate(); !v) return Err{v.error()};
  for (const OutageScript& o : outages) {
    if (o.resolver.empty()) return Err{std::string("monitor: outage script needs a resolver")};
    if (std::find(base.resolvers.begin(), base.resolvers.end(), o.resolver) ==
        base.resolvers.end()) {
      return Err{"monitor: outage names a resolver the spec does not measure: " + o.resolver};
    }
    if (o.from_epoch < 0 || o.to_epoch <= o.from_epoch) {
      return Err{std::string("monitor: outage epochs must satisfy 0 <= from < to")};
    }
  }
  return {};
}

util::Json MonitorSpec::to_json() const {
  util::JsonObject o;
  o["base"] = base.to_json();
  o["epochs"] = epochs;
  util::JsonArray arr;
  arr.reserve(outages.size());
  for (const OutageScript& s : outages) arr.push_back(s.to_json());
  o["outages"] = util::Json(std::move(arr));
  o["slo"] = slo.to_json();
  return util::Json(std::move(o));
}

Result<MonitorSpec> MonitorSpec::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("monitor spec: not an object")};
  MonitorSpec spec;
  auto base = core::MeasurementSpec::from_json(j.at("base"));
  if (!base) return Err{base.error()};
  spec.base = std::move(base).value();
  if (j.at("epochs").is_number()) spec.epochs = static_cast<int>(j.at("epochs").as_number());
  if (j.at("outages").is_array()) {
    for (const util::Json& e : j.at("outages").as_array()) {
      auto s = OutageScript::from_json(e);
      if (!s) return Err{s.error()};
      spec.outages.push_back(std::move(s).value());
    }
  }
  if (!j.at("slo").is_null()) {
    auto slo = SloConfig::from_json(j.at("slo"));
    if (!slo) return Err{slo.error()};
    spec.slo = slo.value();
  }
  if (auto v = spec.validate(); !v) return Err{v.error()};
  return spec;
}

util::Json EpochSummary::to_json() const {
  util::JsonObject o;
  o["epoch"] = epoch;
  o["seed"] = seed;
  o["queries"] = queries;
  o["failures"] = failures;
  o["availability"] = availability;
  return util::Json(std::move(o));
}

Result<EpochSummary> EpochSummary::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("epoch summary: not an object")};
  EpochSummary s;
  if (!j.at("epoch").is_number()) return Err{std::string("epoch summary: missing epoch")};
  s.epoch = static_cast<int>(j.at("epoch").as_number());
  if (j.at("seed").is_number()) s.seed = static_cast<std::uint64_t>(j.at("seed").as_number());
  if (j.at("queries").is_number()) s.queries = static_cast<std::uint64_t>(j.at("queries").as_number());
  if (j.at("failures").is_number()) {
    s.failures = static_cast<std::uint64_t>(j.at("failures").as_number());
  }
  if (j.at("availability").is_number()) s.availability = j.at("availability").as_number();
  return s;
}

util::Json MonitorResult::to_json() const {
  util::JsonObject o;
  o["spec"] = spec.to_json();
  util::JsonArray epoch_arr;
  epoch_arr.reserve(epochs.size());
  for (const EpochSummary& e : epochs) epoch_arr.push_back(e.to_json());
  o["epochs"] = util::Json(std::move(epoch_arr));
  util::JsonObject series_obj;
  series_obj["bucket_width"] = series.bucket_width();
  util::JsonArray points;
  for (const obs::SeriesPoint& p : series.snapshot()) points.push_back(p.to_json());
  series_obj["points"] = util::Json(std::move(points));
  o["series"] = util::Json(std::move(series_obj));
  util::JsonArray slo_arr;
  slo_arr.reserve(slos.size());
  for (const SloSample& s : slos) slo_arr.push_back(s.to_json());
  o["slos"] = util::Json(std::move(slo_arr));
  o["events"] = events_to_json(events);
  util::JsonArray evidence_arr;
  evidence_arr.reserve(evidence.size());
  for (const obs::QueryEvidence& row : evidence) evidence_arr.push_back(row.to_json());
  o["evidence"] = util::Json(std::move(evidence_arr));
  return util::Json(std::move(o));
}

Result<MonitorResult> MonitorResult::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("monitor result: not an object")};
  MonitorResult out;
  auto spec = MonitorSpec::from_json(j.at("spec"));
  if (!spec) return Err{spec.error()};
  out.spec = std::move(spec).value();
  if (j.at("epochs").is_array()) {
    for (const util::Json& e : j.at("epochs").as_array()) {
      auto s = EpochSummary::from_json(e);
      if (!s) return Err{s.error()};
      out.epochs.push_back(std::move(s).value());
    }
  }
  if (j.at("series").is_object()) {
    if (j.at("series").at("bucket_width").is_number()) {
      out.series =
          obs::TimeSeries(static_cast<std::int64_t>(j.at("series").at("bucket_width").as_number()));
    }
    if (j.at("series").at("points").is_array()) {
      for (const util::Json& e : j.at("series").at("points").as_array()) {
        auto p = obs::SeriesPoint::from_json(e);
        if (!p) return Err{p.error()};
        if (auto ins = out.series.insert(p.value()); !ins) return Err{ins.error()};
      }
    }
  }
  if (j.at("slos").is_array()) {
    for (const util::Json& e : j.at("slos").as_array()) {
      auto s = SloSample::from_json(e);
      if (!s) return Err{s.error()};
      out.slos.push_back(std::move(s).value());
    }
  }
  if (j.at("events").is_array()) {
    for (const util::Json& e : j.at("events").as_array()) {
      auto ev = MonitorEvent::from_json(e);
      if (!ev) return Err{ev.error()};
      out.events.push_back(std::move(ev).value());
    }
  }
  if (!j.at("evidence").is_null()) {
    if (!j.at("evidence").is_array()) {
      return Err{std::string("monitor result: evidence must be an array")};
    }
    const util::JsonArray& rows = j.at("evidence").as_array();
    out.evidence.reserve(rows.size());
    for (const util::Json& e : rows) {
      auto row = obs::QueryEvidence::from_json(e);
      if (!row) return Err{"monitor result: " + row.error()};
      if (row.value().epoch < 0 || row.value().epoch >= out.spec.epochs) {
        return Err{"monitor result: evidence row epoch " + std::to_string(row.value().epoch) +
                   " outside [0, " + std::to_string(out.spec.epochs) + ")"};
      }
      out.evidence.push_back(std::move(row).value());
    }
  }
  return out;
}

// Streams the to_json() layout one array element at a time.
void MonitorResult::write_json(const std::function<void(std::string_view)>& sink,
                               int indent) const {
  util::JsonWriter w(sink, indent);
  w.begin_object();
  w.key("epochs");
  w.array_of(epochs);
  w.key("events");
  w.array_of(events);
  w.key("evidence");
  w.array_of(evidence);
  w.key("series");
  w.begin_object();
  w.key("bucket_width");
  w.value(series.bucket_width());
  w.key("points");
  w.array_of(series.snapshot());
  w.end_object();
  w.key("slos");
  w.array_of(slos);
  w.key("spec");
  w.value(spec.to_json());
  w.end_object();
  w.finish();
  sink("\n");
}

void MonitorResult::write_json(std::ostream& os, int indent) const {
  write_json([&os](std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }, indent);
}

void evaluate_result(MonitorResult& result) {
  result.slos = evaluate_slos(result.series, result.spec.slo, result.spec.base.vantage_ids,
                              result.spec.base.resolvers,
                              client::to_string(result.spec.base.protocol), result.spec.epochs);
  result.events = detect_events(result.slos, result.spec.slo);
}

core::MeasurementSpec epoch_campaign_spec(const MonitorSpec& spec, std::uint64_t epoch_seed,
                                          int epoch) {
  core::MeasurementSpec epoch_spec = spec.base;
  epoch_spec.seed = epoch_seed;
  for (const OutageScript& script : spec.outages) {
    if (script.from_epoch <= epoch && epoch < script.to_epoch) {
      // Whole-epoch outage: every round of this epoch's campaign.
      epoch_spec.fault_windows.push_back(core::FaultWindow{script.resolver, 0, epoch_spec.rounds});
    }
  }
  return epoch_spec;
}

Result<MonitorResult> run_monitor(const MonitorSpec& spec, int threads) {
  if (auto v = spec.validate(); !v) return Err{v.error()};
  if (threads < 1) return Err{std::string("monitor: threads must be >= 1")};

  MonitorResult out;
  out.spec = spec;

  // One seed per epoch, derived exactly like campaign shards: the whole run
  // is a pure function of (spec, epochs) for any thread count.
  const std::vector<std::uint64_t> seeds =
      core::shard_seeds(spec.base.seed, static_cast<std::size_t>(spec.epochs));

  for (int e = 0; e < spec.epochs; ++e) {
    const core::MeasurementSpec epoch_spec =
        epoch_campaign_spec(spec, seeds[static_cast<std::size_t>(e)], e);
    const core::CampaignResult result = core::run_parallel_campaign(epoch_spec, threads);

    EpochSummary summary;
    summary.epoch = e;
    summary.seed = epoch_spec.seed;
    // Every epoch runs the same plans, so the first one sizes the evidence.
    if (e == 0) {
      out.evidence.reserve(result.records.size() * static_cast<std::size_t>(spec.epochs));
    }
    for (const core::ResultRecord& r : result.records) {
      const std::string_view proto = client::to_string(r.protocol);
      out.series.add_counter(kMetricQueries, r.vantage, r.resolver, proto, e);
      ++summary.queries;
      if (r.ok) {
        out.series.observe(kMetricResponseMs, r.vantage, r.resolver, proto, e, r.response_ms);
      } else {
        out.series.add_counter(kMetricFailures, r.vantage, r.resolver, proto, e);
        ++summary.failures;
      }
      out.evidence.push_back(evidence_row(r, e));
    }
    summary.availability =
        summary.queries > 0
            ? 1.0 - static_cast<double>(summary.failures) / static_cast<double>(summary.queries)
            : 1.0;
    out.epochs.push_back(summary);
  }

  evaluate_result(out);
  return out;
}

}  // namespace ednsm::monitor
