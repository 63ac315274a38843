// perfbench_harness: runs one workload for a fixed time and prints what it
// measured. run.py builds it, calls it, and turns its last line into the
// benchmark's result line.
//
//   perfbench_harness --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--spans-out FILE] [--setup-only]
//
// Output: human-readable lines, then one JSON object on the last line with
// "attempted", "failed", "correct", "output_digest" and "values" (every
// metric measured, by name). --setup-only runs only the set-up calls and
// prints {"setup_s": ...}.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 20250704;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans-out FILE] [--setup-only]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// One set-up of the workload; returns its seconds and prints its parts.
double timed_set_up(Workload& w) {
  std::map<std::string, double> parts;
  const std::int64_t t0 = now_ns();
  w.set_up(parts);
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  std::printf("set-up %.6f s:", s);
  for (const auto& [name, ms] : parts) std::printf(" %s=%.3fms", name.c_str(), ms);
  std::printf("\n");
  return s;
}

// The mean of the three best samples (highest or lowest), or of all of
// them when there are fewer.
double best3(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0;
  if (higher_is_better) {
    std::sort(v.begin(), v.end(), std::greater<>());
  } else {
    std::sort(v.begin(), v.end());
  }
  const std::size_t n = std::min<std::size_t>(3, v.size());
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

// Prints the best-three mean of `v` with its best value and quartiles, and
// returns the best-three mean.
double print_spread(const char* name, const std::vector<double>& v, bool higher_is_better) {
  if (v.empty()) return 0;
  const double best = higher_is_better ? *std::max_element(v.begin(), v.end())
                                       : *std::min_element(v.begin(), v.end());
  const double top = best3(v, higher_is_better);
  const Quartiles q = quartiles(v);
  std::printf("%s over %zu jobs: best-three mean %.6g, best %.6g, q1 %.6g, median %.6g, q3 %.6g\n",
              name, v.size(), top, best, q.q1, q.median, q.q3);
  return top;
}

// Set-up is cold only once per process (the registry tables are built on
// first use), so each sample is a fresh `--setup-only` run of this binary.
// Returns the child's set-up seconds, or a negative value if it failed.
double cold_set_up_s(const Args& args) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return -1;
  exe[n] = '\0';
  const std::string cmd = std::string("'") + exe + "' --setup-only --workload " + args.workload +
                          " --seed " + std::to_string(args.seed);
  std::FILE* child = popen(cmd.c_str(), "r");
  if (child == nullptr) return -1;
  char line[512];
  double s = -1;
  while (std::fgets(line, sizeof line, child) != nullptr) {
    (void)std::sscanf(line, "{\"setup_s\": %lf}", &s);
  }
  return pclose(child) == 0 ? s : -1;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (w == nullptr) usage("unknown workload " + args.workload);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  if (args.setup_only) {
    std::printf("{\"setup_s\": %s}\n", json_number(timed_set_up(*w)).c_str());
    return 0;
  }

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::vector<double> host_ref{host_ref_ms()};
  std::printf("host_ref_ms at start: %.3f\n", host_ref.back());
  std::vector<double> setup_s{timed_set_up(*w)};

  SpanRecorder spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_digest = 0;
  bool have_digest = false;
  std::vector<JobTimes> untraced;
  std::vector<double> traced_rate_ms, untraced_rate_ms;  // ms per query
  int job_id = 0;

  // Runs one job, checks it, and counts it. Returns false on failure.
  auto one_job = [&](bool traced, JobTimes* out) {
    ++attempted;
    const int id = job_id++;
    try {
      w->drop_outputs();
      reset_peak_rss();
      JobTimes t = w->run_job(traced ? &spans : nullptr, id);
      t.peak_rss_mb = peak_rss_mb();
      std::uint64_t digest = 0;
      std::string err = w->check_job(digest);
      if (err.empty() && have_digest && digest != first_digest) {
        err = "output digest differs from the first job's";
      }
      if (!have_digest) {
        first_digest = digest;
        have_digest = true;
      }
      host_ref.push_back(host_ref_ms());
      if (const double cold = cold_set_up_s(args); cold >= 0) setup_s.push_back(cold);
      std::printf("job %d%s: %.3f ms (rate span %.3f ms, report %.3f ms) %llu queries, "
                  "peak RSS %.1f MiB; host_ref %.3f ms%s%s\n",
                  id, traced ? " traced" : "", t.job_ms, t.rate_ms, t.report_ms,
                  static_cast<unsigned long long>(t.queries), t.peak_rss_mb, host_ref.back(),
                  err.empty() ? "" : "; FAILED: ", err.c_str());
      if (!err.empty()) {
        ++failed;
        return false;
      }
      *out = t;
      return true;
    } catch (const std::exception& e) {
      ++failed;
      std::printf("job %d: FAILED: %s\n", id, e.what());
      return false;
    }
  };

  // Warm-up: lazy set-up inside the program and first-touch of its caches.
  JobTimes warm;
  (void)one_job(false, &warm);

  // Timed section: jobs, at least four, until --seconds of wall time have
  // passed, failed jobs included; three failures in a row end it early. A
  // traced run alternates untraced and traced jobs, so both see the same host.
  const std::int64_t timed_end = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  int failures_in_a_row = 0;
  for (int n = 0; n < 4 || now_ns() < timed_end; ++n) {
    const bool traced = args.trace && n % 2 == 1;
    JobTimes t;
    if (!one_job(traced, &t)) {
      if (++failures_in_a_row == 3) break;
      continue;
    }
    failures_in_a_row = 0;
    (traced ? traced_rate_ms : untraced_rate_ms).push_back(t.rate_ms / t.queries);
    if (!traced) untraced.push_back(t);
  }

  try {
    if (const std::string err = w->check_run(); !err.empty()) {
      ++failed;
      std::printf("run check FAILED: %s\n", err.c_str());
    }
  } catch (const std::exception& e) {
    ++failed;
    std::printf("run check FAILED: %s\n", e.what());
  }

  // The host only ever slows a job down, in phases of seconds to minutes, so
  // the run's fastest jobs are the estimate of the program's own cost least
  // disturbed by it; the mean of the best three is steadier than either the
  // median, which follows the host's phases, or the single best. Peak RSS
  // is per job (reset before each), and its least value sidesteps glibc
  // arena placement, which varies run to run at 2 threads. The quartiles
  // over all jobs are printed beside each.
  std::map<std::string, double> values;
  std::vector<double> rate_qps, report_ms, rss_mb;
  for (const JobTimes& t : untraced) {
    rate_qps.push_back(static_cast<double>(t.queries) / (t.rate_ms / 1e3));
    report_ms.push_back(t.report_ms);
    rss_mb.push_back(t.peak_rss_mb);
  }
  values["queries_per_s"] = print_spread("queries_per_s", rate_qps, true);
  values["report_ms_best3"] = print_spread("report_ms", report_ms, false);
  (void)print_spread("peak_rss_mb", rss_mb, false);
  values["peak_rss_mb"] = rss_mb.empty() ? 0 : *std::min_element(rss_mb.begin(), rss_mb.end());
  // Set-up samples are spread over the run, one after each job, so their
  // median does not hang on the host's speed at start-up.
  const Quartiles sq = quartiles(setup_s);
  std::printf("setup_s over %zu processes: q1 %.6g, median %.6g, q3 %.6g\n", setup_s.size(),
              sq.q1, sq.median, sq.q3);
  values["setup_s"] = sq.median;
  values["host_ref_ms"] = median(host_ref);

  if (args.trace) {
    try {
      for (const auto& [name, v] : w->layers(spans, job_id)) values[name] = v;
    } catch (const std::exception& e) {
      ++failed;
      std::printf("layer pass FAILED: %s\n", e.what());
    }
    // Tracing overhead: the best three traced jobs against the best three
    // untraced ones, per query; the two kinds of job alternate, so both see
    // the same host phases.
    const double traced_ms = best3(traced_rate_ms, false);
    const double untraced_ms = best3(untraced_rate_ms, false);
    values["tracing_overhead_ratio"] = untraced_ms > 0 ? traced_ms / untraced_ms : 0;
    values["queries_per_s_traced"] = traced_ms > 0 ? 1e3 / traced_ms : 0;
    values["queries_per_s_untraced"] = untraced_ms > 0 ? 1e3 / untraced_ms : 0;
    if (!args.spans_out.empty()) {
      std::ofstream(args.spans_out) << spans.chrome_json();
      std::printf("spans: %zu written to %s\n", spans.spans().size(), args.spans_out.c_str());
    }
  }

  values["failed_ratio"] = attempted > 0 ? static_cast<double>(failed) / attempted : 0;
  const Quartiles hr = quartiles(host_ref);
  std::printf("host_ref_ms: median %.3f, q1 %.3f, q3 %.3f, min..max %.3f..%.3f over %zu samples\n",
              hr.median, hr.q1, hr.q3, *std::min_element(host_ref.begin(), host_ref.end()),
              *std::max_element(host_ref.begin(), host_ref.end()), host_ref.size());
  for (const auto& [name, v] : values) std::printf("%-40s %.6g\n", name.c_str(), v);
  std::printf("output_digest %016llx\n", static_cast<unsigned long long>(first_digest));

  std::string line = "{\"workload\": \"" + args.workload +
                     "\", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"correct\": " + (failed == 0 ? "true" : "false") + ", \"output_digest\": \"";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(first_digest));
  line += digest;
  line += "\", \"values\": {";
  bool first = true;
  for (const auto& [name, v] : values) {
    line += (first ? "\"" : ", \"") + name + "\": " + json_number(v);
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
