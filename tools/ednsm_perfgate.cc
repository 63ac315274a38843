// ednsm-perfgate: compares a freshly measured ednsm_bench summary against a
// committed BENCH_*.json ledger row and fails on regression.
//
// Usage:
//   ednsm_perfgate --ledger BENCH_fig2.json --current current.json
//                  [--tolerance-pct 15] [--sim-only]
//
// Three checks, in order:
//   1. Attribution: both files' "header" objects must be identical (same
//      suite, seed, threads, effective_threads, rounds, schema). Different
//      workloads are incomparable — that is an error, not a pass.
//   2. Simulation drift: the deterministic fields (records, pings,
//      error_rate, series_points, results_json_fnv1a, ...) must match
//      EXACTLY. These are pure functions of the spec, so any difference is a
//      behavior change hiding in a perf diff, and is flagged regardless of
//      tolerance.
//   3. Wall clock: current wall_ms may exceed the ledger's by at most
//      --tolerance-pct percent (default 15). Skipped under --sim-only, the
//      machine-independent mode for CI runners whose absolute speed does not
//      match the machine that wrote the ledger.
//
// Exit codes: 0 ok, 1 usage/I-O, 2 incomparable workloads, 3 regression or
// simulation drift.
#include <cstdio>
#include <string>

#include "cli.h"
#include "util/fs.h"
#include "util/json.h"

using namespace ednsm;

namespace {

// The deterministic (spec-derived) summary fields, compared exactly when the
// ledger row carries them. The fig2 results-JSON size and digest and the
// monitor diagnosis digest make any output byte drift a failure.
constexpr const char* kSimFields[] = {
    "records",    "pings",         "error_rate", "series_points", "slo_samples",
    "events",     "cold_queries",  "warm_queries",
    "cold_median_ms", "warm_median_ms", "resolvers", "vantages", "epochs",
    "results_json_bytes", "results_json_fnv1a", "diagnosis_fnv1a", "evidence_rows",
};

Result<util::Json> load_json(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{text.error()};
  auto j = util::Json::parse(text.value());
  if (!j) return Err{path + ": " + j.error()};
  return j;
}

constexpr cli::Flag kFlags[] = {
    {"ledger", "FILE", "committed BENCH_*.json row"},
    {"current", "FILE", "fresh ednsm_bench summary"},
    {"tolerance-pct", "PCT", "allowed wall_ms regression (default 15)", cli::Type::Double},
    {"sim-only", "", "compare only the deterministic fields"},
};
constexpr cli::Command kCli{"ednsm_perfgate", "", kFlags};

int tool_main(const cli::Args& args) {
  const std::string* ledger_path = args.get("ledger");
  const std::string* current_path = args.get("current");
  if (ledger_path == nullptr || current_path == nullptr) {
    return cli::usage_error(kCli, "--ledger and --current are required");
  }
  const double tolerance_pct = args.number("tolerance-pct", 15.0);
  const bool sim_only = args.has("sim-only");

  auto ledger = load_json(*ledger_path);
  if (!ledger) {
    std::fprintf(stderr, "error: ledger: %s\n", ledger.error().c_str());
    return 1;
  }
  auto current = load_json(*current_path);
  if (!current) {
    std::fprintf(stderr, "error: current: %s\n", current.error().c_str());
    return 1;
  }

  const util::Json& lh = ledger.value().at("header");
  const util::Json& ch = current.value().at("header");
  if (!lh.is_object() || !ch.is_object()) {
    std::fprintf(stderr, "error: both files need a \"header\" attribution object\n");
    return 2;
  }
  if (!(lh == ch)) {
    std::fprintf(stderr,
                 "error: incomparable workloads — headers differ\n  ledger:  %s\n  current: %s\n",
                 lh.dump(0).c_str(), ch.dump(0).c_str());
    return 2;
  }

  bool drifted = false;
  for (const char* field : kSimFields) {
    const util::Json& lv = ledger.value().at(field);
    if (lv.is_null()) continue;  // ledger row doesn't carry this field
    const util::Json& cv = current.value().at(field);
    if (!(lv == cv)) {
      std::fprintf(stderr, "DRIFT %s: ledger %s, current %s (deterministic field)\n", field,
                   lv.dump(0).c_str(), cv.dump(0).c_str());
      drifted = true;
    }
  }
  if (drifted) {
    std::fprintf(stderr, "FAIL: simulation output drifted from the ledger — this is a "
                         "behavior change, not a perf delta\n");
    return 3;
  }

  if (!sim_only) {
    if (!ledger.value().at("wall_ms").is_number() ||
        !current.value().at("wall_ms").is_number()) {
      std::fprintf(stderr, "error: both files need a numeric wall_ms\n");
      return 2;
    }
    const double ledger_wall = ledger.value().at("wall_ms").as_number();
    const double current_wall = current.value().at("wall_ms").as_number();
    const double delta_pct =
        ledger_wall > 0.0 ? 100.0 * (current_wall - ledger_wall) / ledger_wall : 0.0;
    if (delta_pct > tolerance_pct) {
      std::fprintf(stderr, "FAIL: wall_ms %.1f -> %.1f (%+.1f%%, tolerance %.1f%%)\n",
                   ledger_wall, current_wall, delta_pct, tolerance_pct);
      return 3;
    }
    std::fprintf(stderr, "ok: wall_ms %.1f -> %.1f (%+.1f%%, tolerance %.1f%%)\n", ledger_wall,
                 current_wall, delta_pct, tolerance_pct);
  } else {
    std::fprintf(stderr, "ok: deterministic fields match the ledger (wall skipped: --sim-only)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
