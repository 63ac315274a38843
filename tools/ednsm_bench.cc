// ednsm-bench: timed benchmark suites with a machine-readable summary, so
// the committed BENCH_*.json perf ledger can be tracked across releases and
// gated in CI (see tools/ednsm_perfgate.cc).
//
// Usage:
//   ednsm_bench [--suite fig2|monitor|micro]
//               [--vantages ids] [--rounds N] [--seed S] [--threads N]
//               [--repeat K] [--json] [--out BENCH_fig2.json]
//               [--trace-overhead]
//
// Suites:
//   fig2 (default) — the paper's Fig. 2 workload: the full Appendix A.2
//     registry from the four global vantages, 30 rounds, on the sharded
//     engine with --threads N workers (default 1).
//   monitor — the longitudinal epoch driver: a 7-resolver watchlist over 30
//     daily epochs with one scripted outage (bench_monitor's scenario).
//   micro — engine micro-costs: a minimal one-vantage campaign and the
//     full-tree lint pass.
//
// Every suite emits a "header" object pinning the exact workload (suite,
// seed, threads, effective_threads, rounds) — the attribution key the perf
// gate matches before comparing numbers — plus deterministic simulation
// fields (records/pings/error_rate/...) and the measured wall_ms.
//
// After its timed runs, fig2 writes the results JSON into memory once:
// results_json_bytes and results_json_fnv1a (16 hex digits) pin every output
// byte, and encode_wall_ms times that write. monitor likewise pins its
// diagnosis: diagnosis_fnv1a digests the bytes `ednsm_monitor diagnose
// --json --out` writes, and evidence_rows counts the stored evidence.
//
// --trace-overhead (fig2 only) re-runs the campaign with tracing enabled and
// adds trace_on_wall_ms / trace_overhead_pct / trace_identical to the summary
// (trace_identical asserts the simulated output is byte-identical either
// way). --repeat reruns the timed section K times and reports the fastest
// wall time (steadier on loaded machines). --json (or --out) emits the
// summary as JSON; --out also writes it to the given path.
//
// Exit codes: 0 ok, 1 bad usage, 3 I/O error.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "core/parallel_campaign.h"
#include "lint/baseline.h"
#include "lint/lint.h"
#include "monitor/diagnose.h"
#include "monitor/monitor.h"
#include "resolver/registry.h"
#include "stats/quantile.h"
#include "util/bytes.h"
#include "util/fs.h"
#include "util/json.h"

using namespace ednsm;

namespace {

// ednsm-lint: allow(determinism-wallclock) — harness-side wall timing of
// the simulation; never feeds simulated results.
using WallClock = std::chrono::steady_clock;

double elapsed_ms(WallClock::time_point start) {
  // ednsm-lint: allow(determinism-wallclock) — harness wall timing
  return std::chrono::duration<double, std::milli>(WallClock::now() - start).count();
}

// Attribution header: the fields that pin a ledger row to an exact workload.
// seed + threads + rounds determine the run completely; effective_threads is
// the worker count after the engine's clamp to [1, #shards], so rows from
// over-provisioned runs compare honestly. The perf gate refuses to compare
// rows whose headers differ.
util::Json make_header(const std::string& bench, std::uint64_t seed, int threads,
                       std::size_t shards, int rounds) {
  util::JsonObject header;
  header["bench"] = util::Json(bench);
  header["schema_version"] = util::Json(3.0);
  header["seed"] = util::Json(static_cast<double>(seed));
  header["threads"] = util::Json(static_cast<double>(threads));
  const std::size_t effective =
      std::min(static_cast<std::size_t>(threads), std::max<std::size_t>(shards, 1));
  header["effective_threads"] = util::Json(static_cast<double>(effective));
  header["rounds"] = util::Json(static_cast<double>(rounds));
  return util::Json(std::move(header));
}

// Whether `r` writes exactly `text`, compared chunk by chunk as the
// streamed writer hands them over, so the second document never exists
// whole.
bool streams_as(const core::CampaignResult& r, std::string_view text) {
  std::size_t at = 0;
  bool same = true;
  r.write_json([&](std::string_view bytes) {
    same = same && text.substr(at, bytes.size()) == bytes;
    at += bytes.size();
  });
  return same && at == text.size();
}

constexpr cli::Flag kFlags[] = {
    {"suite", "NAME", "fig2, monitor or micro (default fig2)"},
    {"vantages", "ID,...", "fig2 vantages (default: the four global ones)"},
    {"rounds", "N", "rounds per campaign (default 30; monitor 3)", cli::Type::Int},
    {"seed", "S", "simulation seed (default 20250704)", cli::Type::U64},
    {"threads", "N", "worker threads (default 1)", cli::Type::Int, 1},
    {"repeat", "K", "time K runs and keep the fastest (default 1)", cli::Type::Int, 1},
    {"json", "", "print the summary JSON (the default without --out)"},
    {"out", "FILE", "write the summary JSON to FILE"},
    {"trace-overhead", "", "fig2: also time a traced run"},
};
constexpr cli::Command kCli{"ednsm_bench", "", kFlags};

int tool_main(const cli::Args& args) {
  const std::string suite = args.text("suite", "fig2");
  std::vector<std::string> vantages = {"home-chicago-1", "ec2-ohio", "ec2-frankfurt",
                                       "ec2-seoul"};
  if (args.has("vantages")) vantages = args.list("vantages");
  const int rounds = args.integer("rounds", suite == "monitor" ? 3 : 30);
  const std::uint64_t seed = args.u64("seed", 20250704);
  const int threads = args.integer("threads", 1);
  const int repeat = args.integer("repeat", 1);
  const bool trace_overhead = args.has("trace-overhead");

  util::JsonObject o;

  if (suite == "fig2") {
    core::MeasurementSpec spec;
    for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
    spec.vantage_ids = vantages;
    spec.rounds = rounds;
    spec.seed = seed;
    if (auto valid = spec.validate(); !valid) {
      std::fprintf(stderr, "invalid bench spec: %s\n", valid.error().c_str());
      return 1;
    }

    // One timed campaign run; `with_trace` enables tracing for the overhead
    // comparison (the trace itself is discarded — only the cost matters).
    const auto timed_run = [&](bool with_trace, double& wall_ms) {
      core::CampaignObsOptions obs_options;
      obs_options.trace = with_trace;
      core::CampaignObsData obs_data;
      const auto start = WallClock::now();
      core::CampaignResult r = core::run_parallel_campaign(spec, threads, obs_options, &obs_data);
      wall_ms = elapsed_ms(start);
      return r;
    };

    core::CampaignResult result;
    double best_wall_ms = 0.0;
    for (int run = 0; run < repeat; ++run) {
      double wall_ms = 0.0;
      result = timed_run(false, wall_ms);
      if (run == 0 || wall_ms < best_wall_ms) best_wall_ms = wall_ms;
    }

    const double records_per_sec =
        best_wall_ms > 0.0 ? static_cast<double>(result.records.size()) / (best_wall_ms / 1000.0)
                           : 0.0;

    // The results JSON, written into memory once after the timed runs. Its
    // size and FNV-1a digest pin every output byte in the ledger (exact
    // perfgate fields); encode_wall_ms is a wall-only lane.
    std::ostringstream results_json;
    const auto encode_start = WallClock::now();
    result.write_json(results_json);
    const double encode_wall_ms = elapsed_ms(encode_start);
    const std::string results_text = std::move(results_json).str();

    double best_traced_wall_ms = 0.0;
    bool trace_identical = true;
    if (trace_overhead) {
      core::CampaignResult traced;
      for (int run = 0; run < repeat; ++run) {
        double wall_ms = 0.0;
        traced = timed_run(true, wall_ms);
        if (run == 0 || wall_ms < best_traced_wall_ms) best_traced_wall_ms = wall_ms;
      }
      trace_identical = streams_as(traced, results_text);
    }

    o["bench"] = util::Json(std::string("paper_campaign"));
    o["header"] = make_header("paper_campaign", seed, threads, vantages.size(), rounds);
    o["threads"] = util::Json(static_cast<double>(threads));
    o["resolvers"] = util::Json(static_cast<double>(spec.resolvers.size()));
    o["vantages"] = util::Json(static_cast<double>(vantages.size()));
    o["rounds"] = util::Json(static_cast<double>(rounds));
    o["seed"] = util::Json(static_cast<double>(seed));
    o["repeat"] = util::Json(static_cast<double>(repeat));
    o["records"] = util::Json(static_cast<double>(result.records.size()));
    o["pings"] = util::Json(static_cast<double>(result.pings.size()));
    o["error_rate"] = util::Json(result.availability.overall().error_rate());
    o["wall_ms"] = util::Json(best_wall_ms);
    o["records_per_sec"] = util::Json(records_per_sec);
    o["results_json_bytes"] = util::Json(static_cast<double>(results_text.size()));
    o["results_json_fnv1a"] = util::Json(util::u64_to_hex(util::fnv1a(results_text)));
    o["encode_wall_ms"] = util::Json(encode_wall_ms);
    if (trace_overhead) {
      o["trace_on_wall_ms"] = util::Json(best_traced_wall_ms);
      o["trace_overhead_pct"] = util::Json(
          best_wall_ms > 0.0 ? 100.0 * (best_traced_wall_ms - best_wall_ms) / best_wall_ms
                             : 0.0);
      o["trace_identical"] = util::Json(trace_identical);
    }

    // Cold/warm medians of simulated response time, keyed off the per-record
    // reuse flag the session layer stamps. Either population can be empty
    // (e.g. reuse=None campaigns have no warm records); its median is omitted.
    std::vector<double> cold_ms, warm_ms;
    for (const core::ResultRecord& r : result.records) {
      if (!r.ok) continue;
      (r.connection_reused ? warm_ms : cold_ms).push_back(r.response_ms);
    }
    o["cold_queries"] = util::Json(static_cast<double>(cold_ms.size()));
    o["warm_queries"] = util::Json(static_cast<double>(warm_ms.size()));
    if (!cold_ms.empty()) o["cold_median_ms"] = util::Json(stats::median(std::move(cold_ms)));
    if (!warm_ms.empty()) o["warm_median_ms"] = util::Json(stats::median(std::move(warm_ms)));
  } else if (suite == "monitor") {
    // bench_monitor's scenario: a watchlist across the four tiers, a month
    // of daily epochs, one scripted mid-span outage.
    monitor::MonitorSpec spec;
    spec.base.resolvers = {
        "dns.google", "security.cloudflare-dns.com", "dns.quad9.net", "ordns.he.net",
        "freedns.controld.com", "doh.ffmuc.net", "kronos.plan9-dns.com",
    };
    spec.base.vantage_ids = {"ec2-ohio"};
    spec.base.rounds = rounds;
    spec.base.seed = seed;
    spec.epochs = 30;
    spec.outages.push_back(monitor::OutageScript{"kronos.plan9-dns.com", 12, 15});

    double best_wall_ms = 0.0;
    monitor::MonitorResult mon;
    for (int run = 0; run < repeat; ++run) {
      const auto start = WallClock::now();
      auto result = monitor::run_monitor(spec, threads);
      const double wall_ms = elapsed_ms(start);
      if (!result) {
        std::fprintf(stderr, "monitor bench failed: %s\n", result.error().c_str());
        return 1;
      }
      mon = std::move(result).value();
      if (run == 0 || wall_ms < best_wall_ms) best_wall_ms = wall_ms;
    }

    // Attribution cost rides along in the ledger: diagnose reads the
    // evidence rows the run stored and scores every event.
    // diagnose_wall_ms is a wall-only lane; diagnosis_fnv1a and
    // evidence_rows are exact (perfgate's sim-field list).
    double best_diagnose_ms = 0.0;
    monitor::DiagnosisReport diagnosis;
    for (int run = 0; run < repeat; ++run) {
      const auto start = WallClock::now();
      auto report = monitor::diagnose_events(mon, threads);
      const double wall_ms = elapsed_ms(start);
      if (!report) {
        std::fprintf(stderr, "diagnose bench failed: %s\n", report.error().c_str());
        return 1;
      }
      diagnosis = std::move(report).value();
      if (run == 0 || wall_ms < best_diagnose_ms) best_diagnose_ms = wall_ms;
    }
    const std::string diagnosis_text = diagnosis.to_json().dump(2) + "\n";

    o["bench"] = util::Json(std::string("monitor"));
    o["header"] = make_header("monitor", seed, threads, spec.base.vantage_ids.size(), rounds);
    o["resolvers"] = util::Json(static_cast<double>(spec.base.resolvers.size()));
    o["epochs"] = util::Json(static_cast<double>(spec.epochs));
    o["rounds"] = util::Json(static_cast<double>(rounds));
    o["seed"] = util::Json(static_cast<double>(seed));
    o["repeat"] = util::Json(static_cast<double>(repeat));
    o["series_points"] = util::Json(static_cast<double>(mon.series.size()));
    o["slo_samples"] = util::Json(static_cast<double>(mon.slos.size()));
    o["events"] = util::Json(static_cast<double>(mon.events.size()));
    o["diagnoses"] = util::Json(static_cast<double>(diagnosis.diagnoses.size()));
    o["diagnosis_fnv1a"] = util::Json(util::u64_to_hex(util::fnv1a(diagnosis_text)));
    o["evidence_rows"] = util::Json(static_cast<double>(mon.evidence.size()));
    o["wall_ms"] = util::Json(best_wall_ms);
    o["diagnose_wall_ms"] = util::Json(best_diagnose_ms);
  } else if (suite == "micro") {
    // Minimal campaign: one vantage, a handful of resolvers — the fixed
    // per-campaign overhead (world build, expansion, collection).
    core::MeasurementSpec spec;
    spec.resolvers = {"dns.google", "ordns.he.net", "dns.quad9.net"};
    spec.vantage_ids = {"ec2-ohio"};
    spec.rounds = rounds > 0 ? std::min(rounds, 2) : 2;
    spec.seed = seed;
    double campaign_wall_ms = 0.0;
    core::CampaignResult result;
    for (int run = 0; run < repeat; ++run) {
      const auto start = WallClock::now();
      result = core::run_parallel_campaign(spec, threads);
      const double wall_ms = elapsed_ms(start);
      if (run == 0 || wall_ms < campaign_wall_ms) campaign_wall_ms = wall_ms;
    }

    // Static-analyzer lane: the full-tree lint cost CI pays on every push
    // (pass 1 index + pass 2 call graph + pass 3 rules), under the committed
    // layers config and baseline that ednsm_lint applies by default. Roots
    // and config are resolved against the current directory like the
    // ednsm_lint CLI; when the tree is not there (bench run from an install
    // dir) the lane reports zero files and is skipped rather than failing
    // the suite. Wall time only — lint findings are the lint_tree ctest
    // case's job, not the bench's.
    double lint_wall_ms = 0.0;
    const std::vector<lint::SourceFile> tree =
        lint::load_tree({lint::kTreeRoots.begin(), lint::kTreeRoots.end()});
    const std::size_t lint_files = tree.size();
    lint::Options lint_options;
    if (auto layers = util::read_file(std::string(lint::kLayersPath))) {
      lint_options.layers_text = std::move(layers).value();
    }
    std::vector<lint::BaselineEntry> lint_baseline;
    if (auto baseline = util::read_file(std::string(lint::kBaselinePath))) {
      std::string error;
      if (!lint::parse_baseline(baseline.value(), &lint_baseline, &error)) {
        std::fprintf(stderr, "note: lint lane ignores %s: %s\n",
                     std::string(lint::kBaselinePath).c_str(), error.c_str());
      }
    }
    for (int run = 0; !tree.empty() && run < repeat; ++run) {
      const auto start = WallClock::now();
      std::vector<lint::Diagnostic> diags = lint::run_lint(tree, lint_options);
      const double wall_ms = elapsed_ms(start);
      if (run == 0) {
        const std::size_t findings =
            lint::apply_baseline(std::move(diags), lint_baseline).remaining.size();
        if (findings > 0) {
          std::fprintf(stderr, "note: lint lane saw %zu findings (not a bench failure)\n",
                       findings);
        }
      }
      if (run == 0 || wall_ms < lint_wall_ms) lint_wall_ms = wall_ms;
    }

    o["bench"] = util::Json(std::string("micro"));
    o["header"] = make_header("micro", seed, threads, spec.vantage_ids.size(), spec.rounds);
    o["repeat"] = util::Json(static_cast<double>(repeat));
    o["lint_files"] = util::Json(static_cast<double>(lint_files));
    o["lint_wall_ms"] = util::Json(lint_wall_ms);
    o["records"] = util::Json(static_cast<double>(result.records.size()));
    o["pings"] = util::Json(static_cast<double>(result.pings.size()));
    o["error_rate"] = util::Json(result.availability.overall().error_rate());
    o["wall_ms"] = util::Json(campaign_wall_ms);
  } else {
    return cli::usage_error(kCli, "unknown suite \"" + suite + "\" (fig2, monitor, micro)");
  }

  const util::Json summary(std::move(o));

  const std::string* out_path = args.get("out");
  if (out_path != nullptr) {
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return 3;
    }
    out << summary.dump(2) << '\n';
  }
  if (args.has("json") || out_path == nullptr) {
    std::printf("%s\n", summary.dump(2).c_str());
  } else {
    std::fprintf(stderr, "%s: wall %.1f ms -> %s\n", suite.c_str(),
                 summary.at("wall_ms").as_number(), out_path->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
