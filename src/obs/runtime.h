// Wall-clock runtime telemetry for the measurement system itself: per-stage
// pipeline counters, live progress heartbeats, and end-of-run manifests for
// sharded campaigns (ZDNS-style scan status reporting; see DESIGN.md
// "Runtime telemetry and clock domains").
//
// This is the OTHER clock domain. The tracer and metrics in this module
// record *simulated* time and are part of the deterministic output contract
// (byte-identical across --threads and --shard splits). Everything in this
// header reads the *host* clock and describes how the run went — throughput,
// stalls, ETA — and must therefore never flow into results, traces, metrics,
// or shard files. That boundary is machine-checked: ednsm_lint's
// obs-domain-separation rule fails the build on any call path from a
// function defined here into a deterministic serialization sink. Telemetry
// artifacts (heartbeat files, run manifests) are separate files with their
// own schemas, validated by `ednsm_trace_check --heartbeat`.
//
// Collection follows the obs::Tracer zero-overhead pattern: the pipeline
// holds a nullable RuntimeTelemetry pointer, every hook is a null check plus
// relaxed atomics, and a run without --progress-file or --manifest pays
// nothing but the null checks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/result.h"

namespace ednsm::obs {

// The sanctioned wall-clock readers (this file is exempt from the
// determinism-wallclock rule; everything outside the telemetry domain still
// is not). runtime_now_ns is monotonic (steady_clock), runtime_unix_ms is
// calendar time for heartbeat freshness stamps.
[[nodiscard]] std::uint64_t runtime_now_ns();
[[nodiscard]] std::uint64_t runtime_unix_ms();

// One pipeline stage's aggregated runtime counters, as serialized into
// heartbeats and manifests. (Deliberately not named to_json/from_json: those
// names are the deterministic codec surface; these artifacts live in the
// wall-clock domain and get their own verbs.)
struct RuntimeStageSnapshot {
  std::string stage;                   // "expand" | "simulate" | "collect"
  std::uint64_t items_in = 0;          // items entering the stage
  std::uint64_t items_out = 0;         // items the stage completed
  std::uint64_t stall_spins = 0;       // collect: wakes with nothing ready
  std::uint64_t stall_ns = 0;          // collect: wall ns spent waiting
  std::uint64_t busy_ns = 0;           // wall ns spent doing stage work
  std::uint64_t max_queue_depth = 0;   // collect: ready-list high water

  [[nodiscard]] util::Json stage_json() const;
  [[nodiscard]] static Result<RuntimeStageSnapshot> stage_from_json(const util::Json& j);
};

// A point-in-time progress report, written crash-safely (atomic rename) to
// the --progress-file path so an orchestrator can poll it without ever
// seeing a torn write. Also the parsed form ednsm_watch renders.
struct RuntimeHeartbeat {
  static constexpr int kSchemaVersion = 1;
  static constexpr std::string_view kSchemaName = "ednsm-heartbeat";

  std::string status;                  // "starting" | "running" | "done" | "failed"
  std::uint64_t spec_fingerprint = 0;
  std::size_t shard_k = 0;
  std::size_t shard_n = 1;
  int threads = 0;
  std::uint64_t started_unix_ms = 0;
  std::uint64_t updated_unix_ms = 0;
  double elapsed_ms = 0;
  std::uint64_t plans_total = 0;
  std::uint64_t plans_done = 0;
  std::uint64_t collector_lag = 0;     // simulated but not yet collected
  std::uint64_t records = 0;
  std::uint64_t bytes_encoded = 0;
  double completion = 0;               // plans_done / plans_total in [0, 1]
  double plans_per_sec = 0;
  double eta_ms = 0;                   // 0 until the first plan completes
  std::vector<RuntimeStageSnapshot> stages;

  [[nodiscard]] util::Json heartbeat_json() const;
  [[nodiscard]] static Result<RuntimeHeartbeat> heartbeat_from_json(const util::Json& j);
};

// End-of-run provenance record: what was measured, how it was split, how
// long it took, and whether it finished — the signal a retry orchestrator
// and the merge cross-check consume. One per `ednsm_measure` process;
// ednsm_merge folds the shard set's manifests into a campaign manifest.
struct RunManifest {
  static constexpr int kSchemaVersion = 1;
  static constexpr std::string_view kSchemaName = "ednsm-run-manifest";

  std::uint64_t spec_fingerprint = 0;
  std::uint64_t seed = 0;
  std::size_t shard_k = 0;
  std::size_t shard_n = 1;
  std::size_t total_shards = 0;        // campaign-wide plan count
  std::size_t plans = 0;               // plans this process simulated
  int threads = 0;
  std::string status;                  // "ok" | "failed"
  std::uint64_t started_unix_ms = 0;
  std::uint64_t finished_unix_ms = 0;
  double wall_ms = 0;
  std::uint64_t records = 0;
  std::uint64_t pings = 0;
  std::uint64_t bytes_encoded = 0;
  std::vector<RuntimeStageSnapshot> stages;

  [[nodiscard]] util::Json manifest_json() const;
  [[nodiscard]] static Result<RunManifest> manifest_from_json(const util::Json& j);
  [[nodiscard]] static Result<RunManifest> manifest_load(const std::string& path);
};

// Campaign-level fold of a complete shard set's manifests (ednsm_merge):
// totals, wall-time spread, and the straggler list.
[[nodiscard]] util::Json campaign_manifest_json(const std::vector<RunManifest>& manifests);

// Indices (into `manifests`) of shards whose wall time exceeds 2x the median
// — the stragglers a multi-machine orchestrator should investigate.
[[nodiscard]] std::vector<std::size_t> straggler_shards(const std::vector<RunManifest>& manifests);

// Human-readable per-shard wall-time/throughput table (`ednsm_merge --stats`).
[[nodiscard]] std::string shard_stats_table(const std::vector<RunManifest>& manifests);

// The collection hub. One instance per measurement process, owned by the
// tool; the pipeline holds a plain pointer (nullptr = telemetry off, the
// obs::Tracer pattern). All counters are relaxed atomics — any thread may
// bump them, any thread may snapshot.
//
// The stage rows of a snapshot come from the worker pool's own counters:
//   expand    in = plans (begin_run), out = plans started;
//   simulate  in = plans started, out = plans done, busy_ns;
//   collect   in = outcomes handed to the collector (a worker hands each one
//             over as it finishes, so this equals plans done), out = outcomes
//             sunk, busy_ns, stall_spins = collector wakes with nothing
//             ready, stall_ns = time the collector waited, max_queue_depth =
//             the ready list's high water.
// Every other field reads 0. The counts are not clamped to the plan total,
// so they stay exact for a caller that never calls begin_run.
class RuntimeTelemetry {
 public:
  using ClockNs = std::uint64_t (*)();
  using ClockMs = std::uint64_t (*)();

  // Clocks are injectable so unit tests can drive deterministic snapshots;
  // production code uses the defaults.
  explicit RuntimeTelemetry(ClockNs now_ns = &runtime_now_ns,
                            ClockMs unix_ms = &runtime_unix_ms);

  // Identity stamps, set once by the tool before the run starts.
  void describe_run(std::uint64_t spec_fingerprint, std::size_t shard_k, std::size_t shard_n,
                    int threads);
  // Marks the start of the measured run and fixes the plan count.
  void begin_run(std::uint64_t plans_total);

  // Stage hooks (relaxed; called from pipeline threads).
  void note_plan_started();                                      // a worker took one plan
  void note_plan_done(std::uint64_t busy_ns);                    // a worker finished one shard
  void note_sink_items(std::uint64_t items, std::uint64_t busy_ns);  // collector sank outcomes
  // The collector woke after waiting `wait_ns` and took `ready` results off
  // the ready list (0: a timed-out wake with nothing to sink). Called only
  // from the collecting thread.
  void note_collector_wake(std::uint64_t ready, std::uint64_t wait_ns);
  void note_records(std::uint64_t n);
  void note_bytes_encoded(std::uint64_t n);

  [[nodiscard]] std::uint64_t clock_now_ns() const { return now_ns_(); }

  // Assemble the current heartbeat view (status supplied by the caller).
  [[nodiscard]] RuntimeHeartbeat snapshot_runtime(std::string status) const;

 private:
  ClockNs now_ns_;
  ClockMs unix_ms_;
  std::uint64_t spec_fingerprint_ = 0;
  std::size_t shard_k_ = 0;
  std::size_t shard_n_ = 1;
  int threads_ = 0;
  std::uint64_t plans_total_ = 0;
  std::uint64_t started_unix_ms_ = 0;
  std::uint64_t started_ns_ = 0;
  std::atomic<std::uint64_t> plans_started_{0};
  std::atomic<std::uint64_t> plans_done_{0};
  std::atomic<std::uint64_t> worker_busy_ns_{0};
  std::atomic<std::uint64_t> sink_items_{0};
  std::atomic<std::uint64_t> collector_busy_ns_{0};
  std::atomic<std::uint64_t> collector_idle_wakes_{0};
  std::atomic<std::uint64_t> collector_wait_ns_{0};
  std::atomic<std::uint64_t> ready_high_water_{0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_encoded_{0};
};

// Rate-limited crash-safe heartbeat emission: every write goes through
// util::write_file_atomic, so the file at `path` is always a complete JSON
// document. write_update() is cheap to call from the collector's sink hook —
// it no-ops until `interval_ms` has passed since the last write.
class HeartbeatWriter {
 public:
  HeartbeatWriter(std::string path, const RuntimeTelemetry& telemetry,
                  std::uint64_t interval_ms = 500);

  // Periodic "running" heartbeat (rate-limited; errors are swallowed —
  // telemetry must never fail the measurement).
  void write_update();
  // Forced terminal write ("done" / "failed"); surfaces I/O errors.
  [[nodiscard]] Result<void> write_final(std::string_view status);

 private:
  [[nodiscard]] Result<void> emit_heartbeat(std::string status);

  std::string path_;
  const RuntimeTelemetry& telemetry_;
  std::uint64_t interval_ns_;
  std::uint64_t last_write_ns_ = 0;
};

}  // namespace ednsm::obs
