// The benchmark's three workloads. Each drives the program only through its
// public entry points; see perfbench/README.md for why each one exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "probes.h"

namespace perfbench {

// Wall times of one job. queries_per_s covers `rate_ms`; report_ms_best3
// covers `report_ms`.
struct JobTimes {
  double job_ms = 0;
  double rate_ms = 0;    // campaign workloads: the whole job; monitor: run_monitor
  double report_ms = 0;  // output encoders; monitor: diagnose_events
  std::uint64_t queries = 0;
  double peak_rss_mb = 0;  // set by the caller
};

// Per-layer values by metric name. Times of a layer the workload does not
// run are absent; counts of such a layer read 0.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // The program's own set-up calls: registry and vantage tables, spec
  // validation, expand_spec and the first SimWorld. Fills `parts` with the
  // milliseconds of each call. Throws on an invalid spec.
  virtual void set_up(std::map<std::string, double>& parts) = 0;

  // Frees the last job's outputs. The caller drops them before it resets the
  // peak RSS, so a job's peak is its own.
  virtual void drop_outputs() = 0;

  // One job. With `spans` set the job is traced: harness spans around each
  // call into the program, the program's metrics on, and its runtime
  // telemetry attached; the job's layer counters are kept for layers().
  virtual JobTimes run_job(SpanRecorder* spans, int job) = 0;

  // Checks the last job's outputs; returns an error or "". `digest` gets the
  // digest of everything the job wrote.
  [[nodiscard]] virtual std::string check_job(std::uint64_t& digest) const = 0;

  // The heavier checks, made once per run on the last job's outputs.
  [[nodiscard]] virtual std::string check_run() = 0;

  // Traced runs only: the layer pass calls each layer of one job on its own,
  // serially, under spans, then returns every per-layer value of the traced
  // jobs and the pass.
  [[nodiscard]] virtual LayerValues layers(SpanRecorder& spans, int first_job) = 0;
};

// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
