// ednsm-measure: the command-line measurement tool (the shape of the paper's
// released artifact — "clients provide a list of DoH resolvers they wish to
// perform measurements with ... the tool writes the results to a JSON file").
//
// Usage:
//   ednsm_measure --spec spec.json [--out results.json]
//   ednsm_measure --resolvers dns.google,ordns.he.net --vantages ec2-ohio
//                 [--rounds 10] [--protocol DoH|DoT|Do53|DoQ|ODoH] [--seed 1]
//                 [--reuse none|keepalive|ticket-resumption]
//                 [--domains google.com,amazon.com] [--out results.json]
//                 [--threads N (default 1)]
//   ednsm_measure --all-resolvers --vantages ec2-ohio,ec2-seoul
//   ednsm_measure ... --trace trace.json [--trace-filter transport]
//                 [--trace-capacity 65536] [--metrics metrics.jsonl]
//   ednsm_measure ... --shard k/N --out shard_k.json
//   ednsm_measure ... --progress-file heartbeat.json --manifest manifest.json
//
// Every campaign runs on the shard-per-vantage engine (one simulated world
// per vantage, see core/parallel_campaign.h). --threads N (default 1) sets
// its worker count; the JSON output is byte-identical for every N.
//
// --shard k/N runs only slice k of N of the campaign's shard plan list (the
// multi-process split; slices are contiguous and balanced) and writes a
// self-describing shard file instead of a results file. N shard files merged
// by ednsm_merge reproduce the unsharded results byte-for-byte. With --trace
// or --metrics the shard file embeds each shard's exact trace/metrics data
// (the flags' path arguments name per-slice artifacts, also written).
//
// Every output file — results or shard file, trace, metrics, manifest — is
// written crash-safely (temp file + fsync + atomic rename): a failed write
// exits 3 and leaves nothing new at the output path. A path that exists and
// is not a regular file (a FIFO, a device such as /dev/stdout) is refused
// the same way. Heartbeats are atomic too, but a failed one only warns.
//
// --trace writes a Chrome trace-event JSON (chrome://tracing / Perfetto)
// timestamped in simulated time; --trace-filter keeps one subsystem ("cat").
// --metrics writes a JSONL metrics dump (counters + distributions). Neither
// perturbs the simulation: the results file is byte-identical with or
// without them.
//
// --progress-file writes a crash-safe wall-clock heartbeat JSON (atomic
// rename; poll it or point ednsm_watch at it), updated about every 500 ms
// while the worker pool runs, or only between shards with one worker;
// --manifest writes the end-of-run provenance record ednsm_merge
// cross-checks. Both live in the runtime telemetry clock domain (see
// DESIGN.md): results/trace/metrics are byte-identical with them on or off.
//
// Exit codes: 0 ok, 1 bad usage, 2 invalid spec, 3 I/O error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>

#include "cli.h"
#include "core/parallel_campaign.h"
#include "core/shard_io.h"
#include "obs/runtime.h"
#include "report/figures.h"
#include "resolver/registry.h"
#include "util/fs.h"

using namespace ednsm;

namespace {

constexpr cli::Flag kFlags[] = {
    {"spec", "FILE", "campaign spec JSON instead of the flags below"},
    {"resolvers", "HOST,...", "resolver hostnames to measure"},
    {"all-resolvers", "", "measure every resolver in the paper's list"},
    {"vantages", "ID,...", "vantage ids (ec2-ohio, home-chicago-1, ...)"},
    {"domains", "NAME,...", "query names (default: the paper's domains)"},
    {"rounds", "N", "rounds per vantage (default 10)", cli::Type::Int},
    {"seed", "S", "simulation seed (default 1)", cli::Type::U64},
    {"protocol", "NAME", "DoH, DoT, Do53, DoQ or ODoH (default DoH)"},
    {"reuse", "POLICY", "none, keepalive or ticket-resumption (default none)"},
    {"threads", "N", "worker threads, same output for any N (default 1)", cli::Type::Int, 1},
    {"out", "FILE", "results JSON, or the shard file with --shard"},
    {"shard", "K/N", "run slice K of N and write a shard file for ednsm_merge"},
    {"trace", "FILE", "write a Chrome trace-event JSON in simulated time"},
    {"trace-filter", "CAT", "keep only this trace category"},
    {"trace-capacity", "N", "trace ring slots per shard (default 65536)", cli::Type::Int, 1},
    {"metrics", "FILE", "write a JSONL metrics dump"},
    {"progress-file", "FILE", "write a wall-clock heartbeat as the run goes"},
    {"manifest", "FILE", "write the end-of-run manifest ednsm_merge checks"},
};
constexpr cli::Command kCli{"ednsm_measure", "", kFlags};

// Reports a failed atomic write; the target path is left untouched.
bool committed(const Result<void>& written) {
  if (written) return true;
  std::fprintf(stderr, "error: %s\n", written.error().c_str());
  return false;
}

Result<core::MeasurementSpec> build_spec(const cli::Args& args) {
  if (const std::string* spec_path = args.get("spec")) {
    auto text = util::read_file(*spec_path);
    if (!text) return Err{"spec file: " + text.error()};
    auto json = util::Json::parse(text.value());
    if (!json) return Err{"spec file is not valid JSON: " + json.error()};
    return core::MeasurementSpec::from_json(json.value());
  }

  core::MeasurementSpec spec;
  if (args.has("all-resolvers")) {
    for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  } else {
    spec.resolvers = args.list("resolvers");
  }
  spec.vantage_ids = args.list("vantages");
  if (args.has("domains")) spec.domains = args.list("domains");
  spec.rounds = args.integer("rounds", spec.rounds);
  spec.seed = args.u64("seed", spec.seed);
  if (const std::string* protocol = args.get("protocol")) {
    if (auto p = client::protocol_from_string(*protocol); p.has_value()) {
      spec.protocol = *p;
    } else {
      return Err{std::string("unknown protocol: ") + *protocol};
    }
  }
  if (const std::string* reuse = args.get("reuse")) {
    if (auto p = transport::reuse_policy_from_string(*reuse); p.has_value()) {
      spec.query_options.reuse = *p;
    } else {
      return Err{std::string("unknown reuse policy: ") + *reuse};
    }
  }
  return spec;
}

int tool_main(const cli::Args& args) {
  auto spec = build_spec(args);
  if (!spec) {
    std::fprintf(stderr, "error: %s\n", spec.error().c_str());
    return 2;
  }
  if (auto valid = spec.value().validate(); !valid) {
    std::fprintf(stderr, "invalid spec: %s\n", valid.error().c_str());
    return 2;
  }

  const int threads = args.integer("threads", 1);

  std::fprintf(stderr,
               "measuring %zu resolvers x %zu vantages x %d rounds over %s (%d threads)...\n",
               spec.value().resolvers.size(), spec.value().vantage_ids.size(),
               spec.value().rounds,
               std::string(client::to_string(spec.value().protocol)).c_str(), threads);

  const std::string* trace_path = args.get("trace");
  const std::string* metrics_path = args.get("metrics");
  core::CampaignObsOptions obs_options;
  obs_options.trace = trace_path != nullptr;
  obs_options.metrics = metrics_path != nullptr;
  if (args.has("trace-capacity")) {
    obs_options.trace_capacity = static_cast<std::size_t>(args.integer("trace-capacity", 1));
  }
  const std::string trace_filter = args.text("trace-filter", "");
  core::CampaignObsData obs_data;
  const std::string* out_path_opt = args.get("out");

  // Runtime telemetry (wall-clock domain; never touches the deterministic
  // outputs). The hub collects whenever either artifact was requested.
  const std::string* progress_path = args.get("progress-file");
  const std::string* manifest_path = args.get("manifest");
  obs::RuntimeTelemetry telemetry;
  std::optional<obs::HeartbeatWriter> heartbeat;
  const bool telemetry_on = progress_path != nullptr || manifest_path != nullptr;
  if (telemetry_on) obs_options.runtime = &telemetry;
  if (progress_path != nullptr) {
    heartbeat.emplace(*progress_path, telemetry);
    obs_options.heartbeat = &*heartbeat;
  }

  auto file_size_bytes = [](const std::string& p) -> std::uint64_t {
    std::ifstream f(p, std::ios::binary | std::ios::ate);
    return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
  };

  // Terminal telemetry flush: final heartbeat ("done"/"failed") plus the run
  // manifest. Returns false only when the manifest itself cannot be written.
  auto emit_final_telemetry = [&](const char* status, std::size_t total_shards,
                                  std::uint64_t pings) -> bool {
    if (!telemetry_on) return true;
    const bool ok = std::string_view(status) == "ok";
    if (heartbeat.has_value()) {
      if (auto w = heartbeat->write_final(ok ? "done" : "failed"); !w) {
        std::fprintf(stderr, "warning: progress file: %s\n", w.error().c_str());
      }
    }
    if (manifest_path == nullptr) return true;
    const obs::RuntimeHeartbeat snap = telemetry.snapshot_runtime(ok ? "done" : "failed");
    obs::RunManifest manifest;
    manifest.spec_fingerprint = snap.spec_fingerprint;
    manifest.seed = spec.value().seed;
    manifest.shard_k = snap.shard_k;
    manifest.shard_n = snap.shard_n;
    manifest.total_shards = total_shards;
    manifest.plans = static_cast<std::size_t>(snap.plans_total);
    manifest.threads = snap.threads;
    manifest.status = status;
    manifest.started_unix_ms = snap.started_unix_ms;
    manifest.finished_unix_ms = snap.updated_unix_ms;
    manifest.wall_ms = snap.elapsed_ms;
    manifest.records = snap.records;
    manifest.pings = pings;
    manifest.bytes_encoded = snap.bytes_encoded;
    manifest.stages = snap.stages;
    if (auto w = util::write_file_atomic(*manifest_path,
                                         manifest.manifest_json().dump(2) + "\n");
        !w) {
      std::fprintf(stderr, "error: manifest: %s\n", w.error().c_str());
      return false;
    }
    return true;
  };

  if (const std::string* shard = args.get("shard")) {
    auto slice = core::ShardSlice::parse(*shard);
    if (!slice) return cli::usage_error(kCli, "--shard: " + slice.error());
    const std::vector<core::ShardPlan> plans = core::expand_spec(spec.value());
    const std::vector<core::ShardPlan> mine = core::slice_plans(plans, slice.value());

    if (telemetry_on) {
      telemetry.describe_run(core::spec_fingerprint(spec.value()), slice.value().k,
                             slice.value().n, threads);
      telemetry.begin_run(mine.size());
      if (heartbeat.has_value()) heartbeat->write_update();  // initial "starting"
    }

    core::ShardFile file;
    file.spec = spec.value();
    file.slice = slice.value();
    file.total_shards = plans.size();
    file.has_trace = obs_options.trace;
    file.has_metrics = obs_options.metrics;
    file.outcomes.reserve(mine.size());
    core::run_pipeline(spec.value(), mine, threads, obs_options,
                       [&](core::ShardOutcome&& outcome) {
                         file.outcomes.push_back(std::move(outcome));
                       });
    // Outcomes arrive in completion order; the file format wants index order
    // (which also makes the file itself byte-identical for any --threads).
    std::sort(file.outcomes.begin(), file.outcomes.end(),
              [](const core::ShardOutcome& a, const core::ShardOutcome& b) {
                return a.index < b.index;
              });

    std::uint64_t shard_pings = 0;
    if (telemetry_on) {
      std::uint64_t shard_records = 0;
      for (const core::ShardOutcome& outcome : file.outcomes) {
        shard_records += outcome.result.records.size();
        shard_pings += outcome.result.pings.size();
      }
      telemetry.note_records(shard_records);
    }

    const std::string path =
        out_path_opt != nullptr
            ? *out_path_opt
            : "shard-" + std::to_string(slice.value().k) + "-of-" +
                  std::to_string(slice.value().n) + ".json";
    if (auto written = file.write(path); !written) {
      std::fprintf(stderr, "error: %s\n", written.error().c_str());
      emit_final_telemetry("failed", plans.size(), shard_pings);
      return 3;
    }
    if (telemetry_on) telemetry.note_bytes_encoded(file_size_bytes(path));

    // Per-slice debugging artifacts; the canonical merged ones come from
    // ednsm_merge over the full shard set.
    if (trace_path != nullptr) {
      obs::MergedTrace view;
      for (const core::ShardOutcome& outcome : file.outcomes) {
        view.add_shard("vantage/" + outcome.vantage, outcome.trace);
      }
      util::AtomicFileWriter trace_file(*trace_path);
      view.write_chrome_json([&trace_file](std::string_view bytes) { trace_file.append(bytes); },
                             trace_filter);
      if (!committed(trace_file.commit())) return 3;
    }
    if (metrics_path != nullptr) {
      obs::Metrics slice_metrics;
      for (const core::ShardOutcome& outcome : file.outcomes) {
        slice_metrics.merge(outcome.metrics);
      }
      if (!committed(util::write_file_atomic(*metrics_path, slice_metrics.jsonl()))) return 3;
    }

    if (!emit_final_telemetry("ok", plans.size(), shard_pings)) return 3;

    std::fprintf(stderr, "shard %zu/%zu: %zu of %zu campaign shards -> %s\n",
                 slice.value().k, slice.value().n, file.outcomes.size(), plans.size(),
                 path.c_str());
    return 0;
  }

  const std::size_t plan_count = spec.value().vantage_ids.size();
  if (telemetry_on) {
    telemetry.describe_run(core::spec_fingerprint(spec.value()), 0, 1, threads);
    telemetry.begin_run(plan_count);
    if (heartbeat.has_value()) heartbeat->write_update();  // initial "starting"
  }

  const core::CampaignResult result =
      core::run_parallel_campaign(spec.value(), threads, obs_options, &obs_data);

  const std::string path = out_path_opt != nullptr ? *out_path_opt : "results.json";
  {
    util::AtomicFileWriter file(path);
    result.write_json([&file](std::string_view bytes) { file.append(bytes); });
    if (!committed(file.commit())) {
      emit_final_telemetry("failed", plan_count, result.pings.size());
      return 3;
    }
  }
  if (telemetry_on) {
    telemetry.note_records(result.records.size());
    telemetry.note_bytes_encoded(file_size_bytes(path));
  }

  if (trace_path != nullptr) {
    util::AtomicFileWriter trace_file(*trace_path);
    obs_data.trace.write_chrome_json(
        [&trace_file](std::string_view bytes) { trace_file.append(bytes); }, trace_filter);
    if (!committed(trace_file.commit())) return 3;
    std::fprintf(stderr, "trace: %llu events (%llu dropped) across %zu shards -> %s\n",
                 static_cast<unsigned long long>(obs_data.trace.total_events()),
                 static_cast<unsigned long long>(obs_data.trace.total_dropped()),
                 obs_data.trace.shard_count(), trace_path->c_str());
  }
  if (metrics_path != nullptr) {
    if (!committed(util::write_file_atomic(*metrics_path, obs_data.metrics.jsonl()))) return 3;
    std::fprintf(stderr, "metrics -> %s\n", metrics_path->c_str());
  }

  if (!emit_final_telemetry("ok", plan_count, result.pings.size())) return 3;

  std::fprintf(stderr, "%zu query records, %zu pings; %.2f%% error rate -> %s\n",
               result.records.size(), result.pings.size(),
               result.availability.overall().error_rate() * 100.0, path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
