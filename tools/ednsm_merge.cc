// ednsm-merge: deterministic merge of `ednsm_measure --shard k/N` shard
// files back into the canonical campaign outputs.
//
// Usage:
//   ednsm_merge --out results.json shard0.json shard1.json ...
//               [--trace trace.json] [--trace-filter transport]
//               [--metrics metrics.jsonl]
//               [--manifests man0.json,man1.json,...]
//               [--manifest-out campaign_manifest.json] [--stats]
//
// --manifests takes the per-process run manifests written by
// `ednsm_measure --manifest` and cross-checks them against the shard files
// (same spec fingerprint, matching slice topology, every shard status "ok");
// --manifest-out folds them into one campaign-level manifest (totals,
// wall-time spread, straggler list); --stats prints a per-shard
// wall-time/throughput table flagging stragglers (>2x median wall time).
// Manifests are wall-clock telemetry: they gate and annotate the merge but
// never alter the merged results/trace/metrics bytes.
//
// The merge is byte-identical to an unsharded `ednsm_measure --threads N`
// run of the same spec, for ANY shard topology: both paths feed the same
// ShardCollector, which assembles records in canonical (round, vantage)
// order, traces in spec vantage order, and metrics in shard-index order.
//
// Inputs are validated strictly before anything is written: every file must
// parse and self-validate (magic, version, fingerprint, plan consistency —
// see core/shard_io.h), all files must describe the same campaign (equal
// spec fingerprints and slice count), and the slices must cover 0..N-1
// exactly once. --trace/--metrics require every shard file to embed the
// corresponding data (i.e. the workers ran with the same flags).
//
// Exit codes: 0 ok, 1 bad usage, 2 inconsistent/invalid shard set, 3 I/O.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "core/parallel_campaign.h"
#include "core/shard_io.h"
#include "obs/runtime.h"
#include "util/fs.h"

using namespace ednsm;

namespace {

constexpr cli::Flag kFlags[] = {
    {"out", "FILE", "merged results JSON (default results.json)"},
    {"trace", "FILE", "merged Chrome trace (shards measured with --trace)"},
    {"trace-filter", "CAT", "keep only this trace category"},
    {"metrics", "FILE", "merged JSONL metrics (shards measured with --metrics)"},
    {"manifests", "FILE,...", "per-shard run manifests to cross-check"},
    {"manifest-out", "FILE", "fold the manifests into one campaign manifest"},
    {"stats", "", "print the per-shard wall-time table"},
};
constexpr cli::Command kCli{"ednsm_merge", "SHARD...", kFlags};

int tool_main(const cli::Args& args) {
  if (args.positionals().empty()) return cli::usage_error(kCli, "no shard files given");

  std::vector<core::ShardFile> shards;
  shards.reserve(args.positionals().size());
  for (const std::string& path : args.positionals()) {
    auto loaded = core::ShardFile::load(path);
    if (!loaded) {
      std::fprintf(stderr, "error: %s\n", loaded.error().c_str());
      return 2;
    }
    shards.push_back(std::move(loaded).value());
  }

  const core::ShardFile& first = shards.front();
  const std::uint64_t fingerprint = core::spec_fingerprint(first.spec);
  if (shards.size() != first.slice.n) {
    std::fprintf(stderr, "error: spec splits into %zu shard files, got %zu\n", first.slice.n,
                 shards.size());
    return 2;
  }
  std::vector<bool> slice_seen(first.slice.n, false);
  for (const core::ShardFile& shard : shards) {
    if (core::spec_fingerprint(shard.spec) != fingerprint) {
      std::fprintf(stderr, "error: shard files describe different campaigns "
                           "(spec fingerprints differ)\n");
      return 2;
    }
    if (shard.slice.n != first.slice.n) {
      std::fprintf(stderr, "error: mixed shard topologies (%zu-way and %zu-way)\n",
                   first.slice.n, shard.slice.n);
      return 2;
    }
    if (shard.has_trace != first.has_trace || shard.has_metrics != first.has_metrics) {
      std::fprintf(stderr, "error: shard files disagree on embedded trace/metrics\n");
      return 2;
    }
    if (slice_seen[shard.slice.k]) {
      std::fprintf(stderr, "error: slice %zu/%zu appears more than once\n", shard.slice.k,
                   shard.slice.n);
      return 2;
    }
    slice_seen[shard.slice.k] = true;
  }

  const std::string* trace_path = args.get("trace");
  const std::string* metrics_path = args.get("metrics");
  if (trace_path != nullptr && !first.has_trace) {
    std::fprintf(stderr, "error: --trace requires shards measured with --trace\n");
    return 2;
  }
  if (metrics_path != nullptr && !first.has_metrics) {
    std::fprintf(stderr, "error: --metrics requires shards measured with --metrics\n");
    return 2;
  }

  // Run-manifest cross-check: telemetry-side provenance must agree with the
  // data-side shard files before we merge anything.
  const std::string* manifest_out = args.get("manifest-out");
  if ((manifest_out != nullptr || args.has("stats")) && !args.has("manifests")) {
    return cli::usage_error(kCli, "--manifest-out/--stats require --manifests");
  }
  std::vector<obs::RunManifest> manifests;
  if (args.has("manifests")) {
    for (const std::string& path : args.list("manifests")) {
      auto loaded = obs::RunManifest::manifest_load(path);
      if (!loaded) {
        std::fprintf(stderr, "error: %s\n", loaded.error().c_str());
        return 2;
      }
      manifests.push_back(std::move(loaded).value());
    }
    if (manifests.size() != shards.size()) {
      std::fprintf(stderr, "error: %zu manifests for %zu shard files\n", manifests.size(),
                   shards.size());
      return 2;
    }
    std::vector<bool> manifest_seen(first.slice.n, false);
    for (const obs::RunManifest& m : manifests) {
      if (m.spec_fingerprint != fingerprint) {
        std::fprintf(stderr, "error: manifest for shard %zu/%zu describes a different "
                             "campaign (spec fingerprints differ)\n", m.shard_k, m.shard_n);
        return 2;
      }
      if (m.shard_n != first.slice.n || m.shard_k >= first.slice.n) {
        std::fprintf(stderr, "error: manifest slice %zu/%zu does not match the %zu-way "
                             "shard set\n", m.shard_k, m.shard_n, first.slice.n);
        return 2;
      }
      if (manifest_seen[m.shard_k]) {
        std::fprintf(stderr, "error: manifest for slice %zu/%zu appears more than once\n",
                     m.shard_k, m.shard_n);
        return 2;
      }
      manifest_seen[m.shard_k] = true;
      if (m.status != "ok") {
        std::fprintf(stderr, "error: shard %zu/%zu reports status \"%s\" in its manifest\n",
                     m.shard_k, m.shard_n, m.status.c_str());
        return 2;
      }
      if (m.total_shards != first.total_shards) {
        std::fprintf(stderr, "error: manifest for slice %zu/%zu expects %zu campaign shards, "
                             "shard files expect %zu\n", m.shard_k, m.shard_n, m.total_shards,
                     first.total_shards);
        return 2;
      }
      for (const core::ShardFile& shard : shards) {
        if (shard.slice.k == m.shard_k && shard.outcomes.size() != m.plans) {
          std::fprintf(stderr, "error: manifest for slice %zu/%zu claims %zu plans, shard "
                               "file holds %zu outcomes\n", m.shard_k, m.shard_n, m.plans,
                       shard.outcomes.size());
          return 2;
        }
      }
    }
  }

  core::CampaignObsOptions obs_options;
  obs_options.trace = trace_path != nullptr;
  obs_options.metrics = metrics_path != nullptr;
  core::CampaignObsData obs_data;

  core::ShardCollector collector(first.spec, first.total_shards, obs_options);
  for (core::ShardFile& shard : shards) {
    for (core::ShardOutcome& outcome : shard.outcomes) {
      if (auto added = collector.add(std::move(outcome)); !added) {
        std::fprintf(stderr, "error: %s\n", added.error().c_str());
        return 2;
      }
    }
  }
  if (!collector.complete()) {
    std::fprintf(stderr, "error: shard set covers %zu of %zu campaign shards\n",
                 collector.collected(), collector.expected());
    return 2;
  }
  const core::CampaignResult result = collector.finish(&obs_data);

  const std::string path = args.text("out", "results.json");
  util::AtomicFileWriter results_file(path);
  result.write_json([&results_file](std::string_view bytes) { results_file.append(bytes); });
  if (auto written = results_file.commit(); !written) {
    std::fprintf(stderr, "error: %s\n", written.error().c_str());
    return 3;
  }

  if (trace_path != nullptr) {
    util::AtomicFileWriter trace_file(*trace_path);
    obs_data.trace.write_chrome_json(
        [&trace_file](std::string_view bytes) { trace_file.append(bytes); },
        args.text("trace-filter", ""));
    if (auto written = trace_file.commit(); !written) {
      std::fprintf(stderr, "error: %s\n", written.error().c_str());
      return 3;
    }
  }
  if (metrics_path != nullptr) {
    if (auto written = util::write_file_atomic(*metrics_path, obs_data.metrics.jsonl());
        !written) {
      std::fprintf(stderr, "error: %s\n", written.error().c_str());
      return 3;
    }
  }

  if (manifest_out != nullptr) {
    const std::string folded = obs::campaign_manifest_json(manifests).dump(2) + "\n";
    if (auto written = util::write_file_atomic(*manifest_out, folded); !written) {
      std::fprintf(stderr, "error: %s\n", written.error().c_str());
      return 3;
    }
  }
  if (args.has("stats")) {
    std::fputs(obs::shard_stats_table(manifests).c_str(), stdout);
    const std::vector<std::size_t> stragglers = obs::straggler_shards(manifests);
    if (!stragglers.empty()) {
      std::fprintf(stdout, "%zu straggler shard(s) exceeded 2x the median wall time\n",
                   stragglers.size());
    }
  }

  std::fprintf(stderr, "merged %zu shard files (%zu campaign shards): %zu records, %zu pings -> %s\n",
               shards.size(), collector.expected(), result.records.size(), result.pings.size(),
               path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
