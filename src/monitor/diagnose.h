// Root-cause diagnosis for monitor events: given a MonitorResult, read the
// per-query evidence behind each event and explain it.
//
// run_monitor stores one obs::QueryEvidence row per query in
// MonitorResult::evidence as it folds each epoch, and monitor.json persists
// the rows, so diagnosis is a read of the stored result: no campaign runs
// again. The rows are the record stream the events were detected from, and
// diagnose_events refuses a result whose rows do not cover every query of
// every epoch. Each event gets:
//
//   - a failure-stage breakdown over the event window and the dominant stage,
//   - per-phase latency profiles (tcp/tls/quic/wait/exchange medians) for the
//     event window and a rolling pre-event baseline, plus their delta,
//   - a scope classification (single-vantage / regional / global) from the
//     geo layer's vantage continents,
//   - a ranked cause verdict (resolver-outage, handshake-layer-failure,
//     path-degradation, cache-behavior-shift) with evidence counts and a
//     human-readable rationale,
//   - exemplar queries with flight-recorder-style refs.
//
// Scores are fixed arithmetic over the aggregates (DESIGN.md "Diagnosis and
// attribution" documents the formulas); the whole report is a pure function
// of (MonitorResult, options) and is serialized through a versioned codec
// gated by tests/golden/monitor_diagnosis.json.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "obs/attribution.h"

namespace ednsm::monitor {

inline constexpr int kDiagnosisVersion = 1;

// One candidate cause with its score in [0, 1] and supporting evidence count.
struct CauseVerdict {
  std::string cause;       // "resolver-outage" | "path-degradation" |
                           // "handshake-layer-failure" | "cache-behavior-shift"
  double score = 0.0;
  std::uint64_t evidence = 0;  // queries backing the verdict
  std::string rationale;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<CauseVerdict> from_json(const util::Json& j);
};

// How widely the event window's impact was observed across the spec's
// vantages (the event itself names one vantage; scope says who else saw it).
struct DiagnosisScope {
  std::string classification;  // "single-vantage" | "regional" | "global" | "no-data"
  std::vector<std::string> affected_vantages;  // sorted
  std::vector<std::string> affected_regions;   // continents, sorted, deduped
  int vantages_observed = 0;  // vantages with evidence in the window

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<DiagnosisScope> from_json(const util::Json& j);
};

struct Diagnosis {
  int version = kDiagnosisVersion;
  MonitorEvent event;
  // Pre-event baseline epochs (inclusive); from > to when the event starts
  // at epoch 0 and no baseline exists.
  int baseline_from = 0;
  int baseline_to = -1;
  std::string dominant_stage;  // "" when the window has no failures
  obs::StageBreakdown stages;  // failures inside [event.start, event.end]
  obs::PhaseProfile baseline;
  obs::PhaseProfile window;
  obs::PhaseDelta delta;  // window minus baseline
  DiagnosisScope scope;
  std::vector<CauseVerdict> verdicts;  // ranked, best first
  std::vector<obs::Exemplar> exemplars;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<Diagnosis> from_json(const util::Json& j);
};

struct DiagnosisReport {
  int version = kDiagnosisVersion;
  std::vector<Diagnosis> diagnoses;  // one per MonitorResult event, same order

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<DiagnosisReport> from_json(const util::Json& j);
  void write_json(std::ostream& os, int indent = 2) const;
};

struct DiagnoseOptions {
  int baseline_epochs = 3;      // pre-event baseline width (>= 1)
  std::size_t max_exemplars = 3;
};

// Diagnose one event from evidence rows for the event's resolver (all
// vantages; the scope classifier needs the unaffected ones too) covering at
// least [baseline start, event.end_epoch].
[[nodiscard]] Diagnosis diagnose_event(const MonitorEvent& event,
                                       const std::vector<obs::QueryEvidence>& evidence,
                                       const DiagnoseOptions& opts);

// Diagnose every event in the result from its stored evidence, grouped by
// each event's resolver. Errors when the spec or options are invalid, or
// when the evidence does not hold exactly epochs[e].queries rows for every
// epoch e (a result written without rows, or with rows lost or moved).
// `threads` must be >= 1 and is otherwise unused: nothing is simulated.
[[nodiscard]] Result<DiagnosisReport> diagnose_events(const MonitorResult& result, int threads,
                                                      const DiagnoseOptions& opts = {});

// Plain-text rendering for the CLI (one block per diagnosis).
[[nodiscard]] std::string render_diagnosis(const Diagnosis& d);
[[nodiscard]] std::string render_diagnosis_report(const DiagnosisReport& report);

}  // namespace ednsm::monitor
