// ednsm-watch: live terminal status for running measurement campaigns.
//
// Usage:
//   ednsm_watch hb0.json [hb1.json ...] [--once] [--interval-ms 1000]
//               [--prom runtime.prom] [--stale-after MS]
//
// Each positional argument is a heartbeat file written by
// `ednsm_measure --progress-file` (one per process of a sharded campaign).
// The watcher re-reads the whole fleet every interval and renders a
// per-shard/per-stage table: completion, throughput, ETA, collector lag,
// staleness (ms since the process last wrote — a wedged or dead shard shows
// frozen progress with growing staleness), and the expand/simulate/collect
// stage counters. It exits when every heartbeat reports a terminal status
// ("done"/"failed"), or after one render with --once.
//
// --prom additionally writes the fleet's runtime gauges in Prometheus text
// exposition (monitor/prom) to the given path on every cycle, atomically, so
// a node-exporter textfile collector can scrape a live campaign.
//
// --stale-after MS flags shards whose heartbeat timestamp lags the fleet's
// newest by more than the threshold: the table shows STALE instead of the
// shard's (frozen) status, and the --prom export gains an
// ednsm_runtime_stale gauge per shard. Without it a dead worker keeps
// showing its last counters forever. Terminal shards ("done"/"failed") are
// never flagged.
//
// Files that do not exist yet (shard process not started) or fail to parse
// mid-rename show as "waiting"; the watcher never fails because of them.
// This tool lives entirely in the wall-clock telemetry domain: it reads
// heartbeats, never results, and all clock access goes through obs/runtime.
//
// Exit codes: 0 ok (fleet finished or --once), 1 bad usage, 3 --prom I/O.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "monitor/prom.h"
#include "obs/runtime.h"
#include "util/fs.h"
#include "util/json.h"

using namespace ednsm;

namespace {

struct WatchedFile {
  std::string path;
  bool valid = false;
  obs::RuntimeHeartbeat heartbeat;
};

// Best-effort read: a missing file (process not started) or a torn/invalid
// read (should not happen — writes are atomic — but a hostile file might)
// leaves the entry in the "waiting" state instead of failing the watcher.
void refresh(WatchedFile& w) {
  w.valid = false;
  auto text = util::read_file(w.path);
  if (!text) return;
  auto json = util::Json::parse(text.value());
  if (!json) return;
  auto parsed = obs::RuntimeHeartbeat::heartbeat_from_json(json.value());
  if (!parsed) return;
  w.heartbeat = std::move(parsed).value();
  w.valid = true;
}

std::string render(const std::vector<WatchedFile>& fleet, std::uint64_t stale_after_ms) {
  const std::uint64_t now_ms = obs::runtime_unix_ms();
  std::vector<obs::RuntimeHeartbeat> beats;
  for (const WatchedFile& w : fleet) {
    if (w.valid) beats.push_back(w.heartbeat);
  }
  const std::uint64_t fleet_latest = monitor::fleet_latest_update_ms(beats);
  std::string out =
      "shard   status     progress             rate/s      eta_ms   lag   stale_ms\n";
  char line[256];
  for (const WatchedFile& w : fleet) {
    if (!w.valid) {
      std::snprintf(line, sizeof(line), "  -     waiting    %-48s\n", w.path.c_str());
      out += line;
      continue;
    }
    const obs::RuntimeHeartbeat& h = w.heartbeat;
    const std::uint64_t stale =
        now_ms > h.updated_unix_ms ? now_ms - h.updated_unix_ms : 0;
    const bool is_stale =
        stale_after_ms > 0 && monitor::heartbeat_is_stale(h, fleet_latest, stale_after_ms);
    std::snprintf(line, sizeof(line),
                  "%2zu/%-2zu  %-9s  %4llu/%-4llu (%5.1f%%)  %8.1f  %10.1f  %4llu  %9llu\n",
                  h.shard_k, h.shard_n, is_stale ? "STALE" : h.status.c_str(),
                  static_cast<unsigned long long>(h.plans_done),
                  static_cast<unsigned long long>(h.plans_total), h.completion * 100.0,
                  h.plans_per_sec, h.eta_ms,
                  static_cast<unsigned long long>(h.collector_lag),
                  static_cast<unsigned long long>(stale));
    out += line;
    for (const obs::RuntimeStageSnapshot& s : h.stages) {
      std::snprintf(line, sizeof(line),
                    "        %-9s  in=%-8llu out=%-8llu stalls=%-8llu stall_ms=%-9.1f "
                    "busy_ms=%-9.1f maxq=%llu\n",
                    s.stage.c_str(), static_cast<unsigned long long>(s.items_in),
                    static_cast<unsigned long long>(s.items_out),
                    static_cast<unsigned long long>(s.stall_spins),
                    static_cast<double>(s.stall_ns) / 1e6,
                    static_cast<double>(s.busy_ns) / 1e6,
                    static_cast<unsigned long long>(s.max_queue_depth));
      out += line;
    }
  }
  return out;
}

constexpr cli::Flag kFlags[] = {
    {"once", "", "render one frame and exit"},
    {"interval-ms", "MS", "refresh period (default 1000)", cli::Type::Int, 1},
    {"prom", "FILE", "also write the fleet gauges in Prometheus text format"},
    {"stale-after", "MS", "flag shards MS behind the newest heartbeat", cli::Type::Int, 1},
};
constexpr cli::Command kCli{"ednsm_watch", "HEARTBEAT...", kFlags};

int tool_main(const cli::Args& args) {
  if (args.positionals().empty()) return cli::usage_error(kCli, "no heartbeat files given");
  std::vector<WatchedFile> fleet;
  for (const std::string& path : args.positionals()) fleet.push_back(WatchedFile{path, false, {}});
  const bool once = args.has("once");
  const int interval_ms = args.integer("interval-ms", 1000);
  const std::string* prom_path = args.get("prom");
  const auto stale_after_ms = static_cast<std::uint64_t>(args.integer("stale-after", 0));

  for (bool first = true;; first = false) {
    for (WatchedFile& w : fleet) refresh(w);

    if (!once && !first) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
    std::fputs(render(fleet, stale_after_ms).c_str(), stdout);
    std::fflush(stdout);

    if (prom_path != nullptr) {
      std::vector<obs::RuntimeHeartbeat> beats;
      for (const WatchedFile& w : fleet) {
        if (w.valid) beats.push_back(w.heartbeat);
      }
      if (auto written = util::write_file_atomic(
              *prom_path, monitor::to_prometheus(beats, stale_after_ms));
          !written) {
        std::fprintf(stderr, "error: %s\n", written.error().c_str());
        return 3;
      }
    }

    bool all_terminal = true;
    for (const WatchedFile& w : fleet) {
      if (!w.valid || (w.heartbeat.status != "done" && w.heartbeat.status != "failed")) {
        all_terminal = false;
      }
    }
    if (once || all_terminal) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
