// Self-contained HTML dashboard for a longitudinal monitor run: an
// availability heatmap over (vantage x resolver) rows and epoch columns, a
// per-region latency band chart (window p50..p95 per epoch, resolvers
// grouped by registry continent), and an event timeline. All styling and SVG
// are inline — the file opens offline, matching the report tools' "artifact
// you can email" convention.
//
// When a DiagnosisReport is supplied (ednsm_report --diagnosis), each
// timeline event's tooltip carries its top-ranked cause and a "Diagnoses"
// section lists the verdicts, stage breakdowns, and flight-recorder exemplar
// refs per event.
#pragma once

#include <string>

#include "monitor/diagnose.h"
#include "monitor/monitor.h"

namespace ednsm::web {

[[nodiscard]] std::string render_monitor_dashboard(const monitor::MonitorResult& result,
                                                   const monitor::DiagnosisReport* diagnoses);

}  // namespace ednsm::web
