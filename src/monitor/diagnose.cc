#include "monitor/diagnose.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "geo/vantage.h"

namespace ednsm::monitor {

namespace {

constexpr double kAvailabilityDropAffected = 0.2;  // baseline -> window drop
constexpr double kLatencyRiseAffected = 1.5;       // window / baseline median
constexpr double kNoBaselineAffectedBelow = 0.8;   // absolute, epoch-0 events

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return std::string(buf);
}

// Continent of a vantage id; "Unknown" instead of the registry's throwing
// lookup so hand-written specs with ad-hoc ids stay diagnosable.
std::string region_of_vantage(const std::string& id) {
  for (const geo::VantagePoint& v : geo::paper_vantage_points()) {
    if (v.id == id) return std::string(geo::to_string(v.continent));
  }
  return "Unknown";
}

DiagnosisScope classify_scope(const std::vector<obs::QueryEvidence>& all_rows,
                              int baseline_from, int baseline_to, int window_from,
                              int window_to) {
  // Deterministic per-vantage split: sorted map, evidence order irrelevant.
  std::map<std::string, std::vector<obs::QueryEvidence>> by_vantage;
  for (const obs::QueryEvidence& row : all_rows) by_vantage[row.vantage].push_back(row);

  DiagnosisScope scope;
  std::set<std::string> regions;
  std::uint64_t window_queries = 0;
  for (const auto& [vantage, rows] : by_vantage) {
    const obs::PhaseProfile window = obs::profile_phases(rows, window_from, window_to);
    if (window.queries == 0) continue;
    ++scope.vantages_observed;
    window_queries += window.queries;
    const obs::PhaseProfile base = obs::profile_phases(rows, baseline_from, baseline_to);
    bool affected = false;
    if (base.queries == 0) {
      affected = window.availability < kNoBaselineAffectedBelow;
    } else {
      if (window.availability < base.availability - kAvailabilityDropAffected) affected = true;
      if (base.response_ms > 0.0 && window.response_ms > kLatencyRiseAffected * base.response_ms) {
        affected = true;
      }
    }
    if (affected) {
      scope.affected_vantages.push_back(vantage);
      regions.insert(region_of_vantage(vantage));
    }
  }
  scope.affected_regions.assign(regions.begin(), regions.end());

  if (window_queries == 0) {
    scope.classification = "no-data";
  } else if (scope.affected_vantages.size() <= 1) {
    scope.classification = "single-vantage";
  } else if (static_cast<int>(scope.affected_vantages.size()) == scope.vantages_observed) {
    scope.classification = "global";
  } else {
    scope.classification = "regional";
  }
  return scope;
}

std::vector<CauseVerdict> rank_causes(const Diagnosis& d) {
  const obs::StageBreakdown& st = d.stages;
  const std::uint64_t failures = st.total();
  const std::uint64_t successes = d.window.queries - d.window.failures;
  const double fail_frac =
      d.window.queries > 0
          ? static_cast<double>(d.window.failures) / static_cast<double>(d.window.queries)
          : 0.0;
  const auto share = [&](std::uint64_t count) {
    return failures > 0 ? static_cast<double>(count) / static_cast<double>(failures) : 0.0;
  };
  const std::size_t observed = static_cast<std::size_t>(std::max(d.scope.vantages_observed, 1));
  const double scope_frac =
      static_cast<double>(std::max<std::size_t>(d.scope.affected_vantages.size(),
                                                d.scope.classification == "single-vantage" ? 1 : 0)) /
      static_cast<double>(observed);

  const double base_hs_ms = d.baseline.tcp_ms + d.baseline.tls_ms + d.baseline.quic_ms;
  const double hs_delta_ms = d.delta.tcp_ms + d.delta.tls_ms + d.delta.quic_ms;
  const double hs_rise =
      base_hs_ms > 0.0 ? clamp01(std::max(0.0, hs_delta_ms) / base_hs_ms) : 0.0;
  const double lat_rise = d.baseline.response_ms > 0.0
                              ? clamp01(std::max(0.0, d.delta.response_ms) / d.baseline.response_ms)
                              : 0.0;
  const double ex_rise = d.baseline.exchange_ms > 0.0
                             ? clamp01(std::max(0.0, d.delta.exchange_ms) / d.baseline.exchange_ms)
                             : 0.0;
  const double reuse_shift = clamp01(2.0 * std::fabs(d.delta.reused_fraction));

  std::vector<CauseVerdict> verdicts;
  {
    CauseVerdict v;
    v.cause = "resolver-outage";
    v.score = clamp01(fail_frac * (share(st.connect) + share(st.timeout)) * scope_frac);
    v.evidence = st.connect + st.timeout;
    v.rationale = fmt("%.0f", fail_frac * 100.0) + "% of " + std::to_string(d.window.queries) +
                  " window queries failed; connect+timeout stage share " +
                  fmt("%.0f", (share(st.connect) + share(st.timeout)) * 100.0) + "%; " +
                  std::to_string(d.scope.affected_vantages.size()) + "/" +
                  std::to_string(d.scope.vantages_observed) + " vantages affected";
    verdicts.push_back(std::move(v));
  }
  {
    CauseVerdict v;
    v.cause = "handshake-layer-failure";
    v.score = clamp01(fail_frac * share(st.handshake) + 0.5 * (1.0 - fail_frac) * hs_rise);
    v.evidence = st.handshake;
    v.rationale = "handshake-stage share " + fmt("%.0f", share(st.handshake) * 100.0) +
                  "% of failures; handshake median delta " + fmt("%+.1f", hs_delta_ms) + " ms";
    verdicts.push_back(std::move(v));
  }
  {
    CauseVerdict v;
    v.cause = "path-degradation";
    // A latency rise seen from every vantage at once points at the resolver,
    // not the paths to it; halve the path score when the scope is global.
    v.score = clamp01((1.0 - fail_frac) * lat_rise *
                      (d.scope.classification == "global" ? 0.5 : 1.0));
    v.evidence = successes;
    v.rationale = "median response " + fmt("%+.1f", d.delta.response_ms) + " ms vs baseline (" +
                  fmt("%.1f", d.baseline.response_ms) + " -> " + fmt("%.1f", d.window.response_ms) +
                  "); scope " + d.scope.classification;
    verdicts.push_back(std::move(v));
  }
  {
    CauseVerdict v;
    v.cause = "cache-behavior-shift";
    v.score = clamp01((1.0 - fail_frac) * 0.5 * (ex_rise + reuse_shift));
    v.evidence = successes;
    v.rationale = "exchange median delta " + fmt("%+.1f", d.delta.exchange_ms) +
                  " ms; reused-connection fraction delta " + fmt("%+.2f", d.delta.reused_fraction);
    verdicts.push_back(std::move(v));
  }
  std::sort(verdicts.begin(), verdicts.end(), [](const CauseVerdict& a, const CauseVerdict& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.cause < b.cause;
  });
  return verdicts;
}

// Every epoch must hold exactly as many rows as it ran queries: a lost or
// misplaced row would shift a median or hide a failure, and a file without
// rows would otherwise diagnose every event as no-data.
Result<void> check_evidence_coverage(const MonitorResult& result) {
  const int epochs = result.spec.epochs;
  if (result.epochs.size() != static_cast<std::size_t>(epochs)) {
    return Err{"diagnose: result has " + std::to_string(result.epochs.size()) +
               " epoch summaries for " + std::to_string(epochs) + " epochs"};
  }
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(epochs), 0);
  for (const obs::QueryEvidence& row : result.evidence) {
    if (row.epoch < 0 || row.epoch >= epochs) {
      return Err{"diagnose: evidence row for epoch " + std::to_string(row.epoch) +
                 " outside the run"};
    }
    ++rows[static_cast<std::size_t>(row.epoch)];
  }
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const EpochSummary& summary = result.epochs[e];
    if (summary.epoch != static_cast<int>(e)) {
      return Err{"diagnose: epoch summary " + std::to_string(e) + " is for epoch " +
                 std::to_string(summary.epoch)};
    }
    if (rows[e] != summary.queries) {
      return Err{"diagnose: epoch " + std::to_string(e) + " has " + std::to_string(rows[e]) +
                 " evidence rows for " + std::to_string(summary.queries) +
                 " queries (re-run the monitor to record per-query evidence)"};
    }
  }
  return {};
}

}  // namespace

util::Json CauseVerdict::to_json() const {
  util::JsonObject o;
  o["cause"] = cause;
  o["score"] = score;
  o["evidence"] = evidence;
  o["rationale"] = rationale;
  return util::Json(std::move(o));
}

Result<CauseVerdict> CauseVerdict::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("cause verdict: not an object")};
  CauseVerdict v;
  if (!j.at("cause").is_string()) return Err{std::string("cause verdict: missing cause")};
  v.cause = j.at("cause").as_string();
  if (j.at("score").is_number()) v.score = j.at("score").as_number();
  if (j.at("evidence").is_number()) {
    v.evidence = static_cast<std::uint64_t>(j.at("evidence").as_number());
  }
  if (j.at("rationale").is_string()) v.rationale = j.at("rationale").as_string();
  return v;
}

util::Json DiagnosisScope::to_json() const {
  util::JsonObject o;
  o["classification"] = classification;
  util::JsonArray vantages;
  vantages.reserve(affected_vantages.size());
  for (const std::string& v : affected_vantages) vantages.push_back(v);
  o["affected_vantages"] = util::Json(std::move(vantages));
  util::JsonArray region_arr;
  region_arr.reserve(affected_regions.size());
  for (const std::string& r : affected_regions) region_arr.push_back(r);
  o["affected_regions"] = util::Json(std::move(region_arr));
  o["vantages_observed"] = vantages_observed;
  return util::Json(std::move(o));
}

Result<DiagnosisScope> DiagnosisScope::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("diagnosis scope: not an object")};
  DiagnosisScope s;
  if (!j.at("classification").is_string()) {
    return Err{std::string("diagnosis scope: missing classification")};
  }
  s.classification = j.at("classification").as_string();
  if (j.at("affected_vantages").is_array()) {
    for (const util::Json& v : j.at("affected_vantages").as_array()) {
      if (!v.is_string()) return Err{std::string("diagnosis scope: vantage must be a string")};
      s.affected_vantages.push_back(v.as_string());
    }
  }
  if (j.at("affected_regions").is_array()) {
    for (const util::Json& r : j.at("affected_regions").as_array()) {
      if (!r.is_string()) return Err{std::string("diagnosis scope: region must be a string")};
      s.affected_regions.push_back(r.as_string());
    }
  }
  if (j.at("vantages_observed").is_number()) {
    s.vantages_observed = static_cast<int>(j.at("vantages_observed").as_number());
  }
  return s;
}

util::Json Diagnosis::to_json() const {
  util::JsonObject o;
  o["version"] = version;
  o["event"] = event.to_json();
  o["baseline_from"] = baseline_from;
  o["baseline_to"] = baseline_to;
  o["dominant_stage"] = dominant_stage;
  o["stages"] = stages.to_json();
  o["baseline"] = baseline.to_json();
  o["window"] = window.to_json();
  o["delta"] = delta.to_json();
  o["scope"] = scope.to_json();
  util::JsonArray verdict_arr;
  verdict_arr.reserve(verdicts.size());
  for (const CauseVerdict& v : verdicts) verdict_arr.push_back(v.to_json());
  o["verdicts"] = util::Json(std::move(verdict_arr));
  util::JsonArray exemplar_arr;
  exemplar_arr.reserve(exemplars.size());
  for (const obs::Exemplar& e : exemplars) exemplar_arr.push_back(e.to_json());
  o["exemplars"] = util::Json(std::move(exemplar_arr));
  return util::Json(std::move(o));
}

Result<Diagnosis> Diagnosis::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("diagnosis: not an object")};
  Diagnosis d;
  if (j.at("version").is_number()) d.version = static_cast<int>(j.at("version").as_number());
  if (d.version != kDiagnosisVersion) {
    return Err{std::string("diagnosis: unsupported version ") + std::to_string(d.version)};
  }
  auto event = MonitorEvent::from_json(j.at("event"));
  if (!event) return Err{event.error()};
  d.event = std::move(event).value();
  if (j.at("baseline_from").is_number()) {
    d.baseline_from = static_cast<int>(j.at("baseline_from").as_number());
  }
  if (j.at("baseline_to").is_number()) {
    d.baseline_to = static_cast<int>(j.at("baseline_to").as_number());
  }
  if (j.at("dominant_stage").is_string()) d.dominant_stage = j.at("dominant_stage").as_string();
  if (!j.at("stages").is_null()) {
    auto stages = obs::StageBreakdown::from_json(j.at("stages"));
    if (!stages) return Err{stages.error()};
    d.stages = stages.value();
  }
  if (!j.at("baseline").is_null()) {
    auto baseline = obs::PhaseProfile::from_json(j.at("baseline"));
    if (!baseline) return Err{baseline.error()};
    d.baseline = baseline.value();
  }
  if (!j.at("window").is_null()) {
    auto window = obs::PhaseProfile::from_json(j.at("window"));
    if (!window) return Err{window.error()};
    d.window = window.value();
  }
  if (!j.at("delta").is_null()) {
    auto delta = obs::PhaseDelta::from_json(j.at("delta"));
    if (!delta) return Err{delta.error()};
    d.delta = delta.value();
  }
  if (!j.at("scope").is_null()) {
    auto scope = DiagnosisScope::from_json(j.at("scope"));
    if (!scope) return Err{scope.error()};
    d.scope = std::move(scope).value();
  }
  if (j.at("verdicts").is_array()) {
    for (const util::Json& v : j.at("verdicts").as_array()) {
      auto verdict = CauseVerdict::from_json(v);
      if (!verdict) return Err{verdict.error()};
      d.verdicts.push_back(std::move(verdict).value());
    }
  }
  if (j.at("exemplars").is_array()) {
    for (const util::Json& e : j.at("exemplars").as_array()) {
      auto exemplar = obs::Exemplar::from_json(e);
      if (!exemplar) return Err{exemplar.error()};
      d.exemplars.push_back(std::move(exemplar).value());
    }
  }
  return d;
}

util::Json DiagnosisReport::to_json() const {
  util::JsonObject o;
  o["version"] = version;
  util::JsonArray arr;
  arr.reserve(diagnoses.size());
  for (const Diagnosis& d : diagnoses) arr.push_back(d.to_json());
  o["diagnoses"] = util::Json(std::move(arr));
  return util::Json(std::move(o));
}

Result<DiagnosisReport> DiagnosisReport::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("diagnosis report: not an object")};
  DiagnosisReport report;
  if (j.at("version").is_number()) {
    report.version = static_cast<int>(j.at("version").as_number());
  }
  if (report.version != kDiagnosisVersion) {
    return Err{std::string("diagnosis report: unsupported version ") +
               std::to_string(report.version)};
  }
  if (j.at("diagnoses").is_array()) {
    for (const util::Json& d : j.at("diagnoses").as_array()) {
      auto diagnosis = Diagnosis::from_json(d);
      if (!diagnosis) return Err{diagnosis.error()};
      report.diagnoses.push_back(std::move(diagnosis).value());
    }
  }
  return report;
}

void DiagnosisReport::write_json(std::ostream& os, int indent) const {
  os << to_json().dump(indent) << '\n';
}

Diagnosis diagnose_event(const MonitorEvent& event,
                         const std::vector<obs::QueryEvidence>& evidence,
                         const DiagnoseOptions& opts) {
  Diagnosis d;
  d.event = event;
  d.baseline_from = std::max(0, event.start_epoch - std::max(opts.baseline_epochs, 1));
  d.baseline_to = event.start_epoch - 1;  // < baseline_from when no pre-event epochs exist

  // The event's own (vantage, resolver) pair carries the stage/phase story;
  // the full evidence set (all vantages) feeds the scope classifier.
  std::vector<obs::QueryEvidence> pair_rows;
  for (const obs::QueryEvidence& row : evidence) {
    if (row.vantage == event.vantage) pair_rows.push_back(row);
  }

  d.stages = obs::count_stages(pair_rows, event.start_epoch, event.end_epoch);
  d.dominant_stage = std::string(d.stages.dominant());
  d.baseline = obs::profile_phases(pair_rows, d.baseline_from, d.baseline_to);
  if (d.baseline.queries == 0) d.baseline = obs::PhaseProfile{};  // canonical "no baseline"
  d.window = obs::profile_phases(pair_rows, event.start_epoch, event.end_epoch);
  d.delta = obs::phase_delta(d.baseline, d.window);
  d.scope = classify_scope(evidence, d.baseline_from, d.baseline_to, event.start_epoch,
                           event.end_epoch);
  d.verdicts = rank_causes(d);
  d.exemplars =
      obs::pick_exemplars(pair_rows, event.start_epoch, event.end_epoch, opts.max_exemplars);
  for (obs::Exemplar& e : d.exemplars) {
    e.flight_ref = "epoch" + std::to_string(e.epoch) + "/" + e.vantage + "/" + event.resolver +
                   "/r" + std::to_string(e.round) + "/" + e.domain;
  }
  return d;
}

Result<DiagnosisReport> diagnose_events(const MonitorResult& result, int threads,
                                        const DiagnoseOptions& opts) {
  if (auto v = result.spec.validate(); !v) return Err{v.error()};
  if (threads < 1) return Err{std::string("diagnose: threads must be >= 1")};
  if (opts.baseline_epochs < 1) {
    return Err{std::string("diagnose: baseline epochs must be >= 1")};
  }
  if (auto covered = check_evidence_coverage(result); !covered) return Err{covered.error()};

  // Rows of each event's resolver in stored order; events on the same
  // resolver share them.
  std::map<std::string_view, std::vector<const obs::QueryEvidence*>> by_resolver;
  for (const MonitorEvent& ev : result.events) by_resolver.try_emplace(ev.resolver);
  for (const obs::QueryEvidence& row : result.evidence) {
    const auto it = by_resolver.find(row.resolver);
    if (it != by_resolver.end()) it->second.push_back(&row);
  }

  DiagnosisReport report;
  report.diagnoses.reserve(result.events.size());
  for (const MonitorEvent& ev : result.events) {
    // diagnose_event reads only [baseline start, event end], so only those
    // epochs' rows are copied.
    const int from = std::max(0, ev.start_epoch - opts.baseline_epochs);
    std::vector<obs::QueryEvidence> rows;
    for (const obs::QueryEvidence* row : by_resolver.at(ev.resolver)) {
      if (row->epoch >= from && row->epoch <= ev.end_epoch) rows.push_back(*row);
    }
    report.diagnoses.push_back(diagnose_event(ev, rows, opts));
  }
  return report;
}

std::string render_diagnosis(const Diagnosis& d) {
  std::ostringstream os;
  const MonitorEvent& ev = d.event;
  os << '[' << ev.type << "] " << ev.vantage << " / " << ev.resolver << " (" << ev.protocol
     << ") epochs " << ev.start_epoch << ".." << ev.end_epoch << '\n';
  if (!d.verdicts.empty()) {
    const CauseVerdict& top = d.verdicts.front();
    os << "  verdict: " << top.cause << " (score " << fmt("%.2f", top.score) << ", evidence "
       << top.evidence << ") — " << top.rationale << '\n';
  }
  os << "  dominant stage: " << (d.dominant_stage.empty() ? "none" : d.dominant_stage) << " ("
     << d.stages.connect << " connect / " << d.stages.handshake << " handshake / "
     << d.stages.query << " query / " << d.stages.timeout << " timeout / " << d.stages.other
     << " other)\n";
  os << "  scope: " << d.scope.classification << " (" << d.scope.affected_vantages.size() << '/'
     << d.scope.vantages_observed << " vantages";
  if (!d.scope.affected_regions.empty()) {
    os << "; regions";
    for (const std::string& r : d.scope.affected_regions) os << ' ' << r;
  }
  os << ")\n";
  const auto profile_line = [&os](const char* label, const obs::PhaseProfile& p, int from,
                                  int to) {
    os << "  " << label << " epochs " << from << ".." << to << ": avail "
       << fmt("%.1f", p.availability * 100.0) << "% of " << p.queries << ", median "
       << fmt("%.1f", p.response_ms) << " ms (tcp " << fmt("%.1f", p.tcp_ms) << " / tls "
       << fmt("%.1f", p.tls_ms) << " / quic " << fmt("%.1f", p.quic_ms) << " / wait "
       << fmt("%.1f", p.wait_ms) << " / exch " << fmt("%.1f", p.exchange_ms) << ", reuse "
       << fmt("%.0f", p.reused_fraction * 100.0) << "%)\n";
  };
  if (d.baseline_to >= d.baseline_from) {
    profile_line("baseline", d.baseline, d.baseline_from, d.baseline_to);
  } else {
    os << "  baseline: none (event starts at epoch " << ev.start_epoch << ")\n";
  }
  profile_line("window  ", d.window, ev.start_epoch, ev.end_epoch);
  os << "  delta: response " << fmt("%+.1f", d.delta.response_ms) << " ms, availability "
     << fmt("%+.1f", d.delta.availability * 100.0) << " pp\n";
  os << "  ranked causes:";
  for (const CauseVerdict& v : d.verdicts) os << ' ' << v.cause << '=' << fmt("%.2f", v.score);
  os << '\n';
  for (const obs::Exemplar& e : d.exemplars) {
    os << "  exemplar: " << (e.ok ? "SLOW" : "FAIL") << ' ' << e.flight_ref << ' '
       << fmt("%.1f", e.response_ms) << " ms";
    if (!e.ok) {
      os << ' ' << (e.failure_stage.empty() ? "unknown" : e.failure_stage) << " ("
         << e.error_class << ')';
    }
    os << '\n';
  }
  return std::move(os).str();
}

std::string render_diagnosis_report(const DiagnosisReport& report) {
  if (report.diagnoses.empty()) return "no events to diagnose\n";
  std::string out;
  for (const Diagnosis& d : report.diagnoses) {
    if (!out.empty()) out += '\n';
    out += render_diagnosis(d);
  }
  return out;
}

}  // namespace ednsm::monitor
