// ednsm-monitor: longitudinal monitor mode — repeated campaigns over
// simulated days, a time-series store, rolling SLOs, and outage detection.
//
// Usage:
//   ednsm_monitor run --resolvers dns.google,ordns.he.net --vantages ec2-ohio
//                 [--epochs 8] [--rounds 3] [--protocol DoH] [--seed 1]
//                 [--threads N] [--domains a.com,b.com]
//                 [--outage resolver:from:to]...   (epochs [from, to) offline)
//                 [--window 3]
//                 [--out monitor.json] [--series-out series.jsonl]
//                 [--series-bin series.bin] [--slo-out slo.json]
//                 [--events-out events.json]
//   ednsm_monitor run --spec monitor_spec.json [--threads N] [--out ...]
//   ednsm_monitor slo --in monitor.json [--json]
//   ednsm_monitor events --in monitor.json
//   ednsm_monitor diagnose --in monitor.json [--baseline K] [--exemplars N]
//                 [--json] [--out diagnosis.json]
//   ednsm_monitor export --prom --in monitor.json
//
// `run` stores one evidence row per query in monitor.json; `diagnose` reads
// those rows back (it simulates nothing) and attributes every event to a
// ranked cause; see monitor/diagnose.h. A monitor.json without rows still
// serves slo, events and export, but diagnose rejects it (exit 2).
//
// The run and diagnose outputs are pure functions of the spec:
// byte-identical monitor, series, SLO, event, and diagnosis files for any
// --threads value. Every output file is written to a temporary sibling and
// renamed into place, so a failed write leaves no partial file and exits 3.
//
// Exit codes: 0 ok, 1 bad usage, 2 invalid spec or evidence, 3 I/O error.
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "monitor/diagnose.h"
#include "monitor/monitor.h"
#include "monitor/prom.h"
#include "resolver/registry.h"
#include "util/fs.h"

using namespace ednsm;

namespace {

constexpr cli::Flag kFlags[] = {
    {"spec", "FILE", "run: monitor spec JSON instead of the flags below"},
    {"resolvers", "HOST,...", "run: resolver hostnames to watch"},
    {"all-resolvers", "", "run: watch every resolver in the paper's list"},
    {"vantages", "ID,...", "run: vantage ids"},
    {"domains", "NAME,...", "run: query names (default: the paper's domains)"},
    {"epochs", "N", "run: simulated epochs (days; default 8)", cli::Type::Int},
    {"rounds", "N", "run: rounds per epoch (default 3)", cli::Type::Int},
    {"protocol", "NAME", "run: DoH, DoT, Do53, DoQ or ODoH (default DoH)"},
    {"seed", "S", "run: simulation seed (default 1)", cli::Type::U64},
    {"outage", "HOST:FROM:TO", "run: HOST offline in epochs [FROM, TO); repeatable"},
    {"window", "N", "run: rolling SLO window in epochs (default 3)", cli::Type::Int},
    {"threads", "N", "run: worker threads (default 1)", cli::Type::Int, 1},
    {"out", "FILE", "run: output (default monitor.json); diagnose: report"},
    {"series-out", "FILE", "run: time series as JSONL"},
    {"series-bin", "FILE", "run: time series in the EDTS binary format"},
    {"slo-out", "FILE", "run: SLO samples JSON"},
    {"events-out", "FILE", "run: events JSON"},
    {"in", "FILE", "slo, events, diagnose, export: a run's monitor JSON"},
    {"json", "", "slo, diagnose: print JSON instead of a table"},
    {"baseline", "N", "diagnose: baseline epochs per event (default 3)", cli::Type::Int, 1},
    {"exemplars", "N", "diagnose: exemplar queries per event (default 3)", cli::Type::Int, 0},
    {"prom", "", "export: Prometheus text exposition"},
};
constexpr cli::Command kCli{"ednsm_monitor", "run|slo|events|diagnose|export", kFlags};

// "resolver:from:to" -> OutageScript (epochs [from, to) offline).
Result<monitor::OutageScript> parse_outage(const std::string& text) {
  const std::size_t last = text.rfind(':');
  const std::size_t first =
      last == std::string::npos || last == 0 ? std::string::npos : text.rfind(':', last - 1);
  if (first == std::string::npos || first == 0) {
    return Err{"--outage wants resolver:from:to (got " + text + ")"};
  }
  const std::string_view view(text);
  const std::optional<int> from = cli::parse_number<int>(view.substr(first + 1, last - first - 1));
  const std::optional<int> to = cli::parse_number<int>(view.substr(last + 1));
  if (!from || !to) return Err{"--outage wants integer epochs (got " + text + ")"};
  return monitor::OutageScript{text.substr(0, first), *from, *to};
}

Result<util::Json> load_json(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{text.error()};
  auto json = util::Json::parse(text.value());
  if (!json) return Err{path + " is not valid JSON: " + json.error()};
  return json;
}

Result<monitor::MonitorResult> load_result(const std::string& path) {
  auto json = load_json(path);
  if (!json) return Err{json.error()};
  return monitor::MonitorResult::from_json(json.value());
}

Result<monitor::MonitorSpec> build_spec(const cli::Args& args,
                                        std::vector<monitor::OutageScript> outages) {
  if (const std::string* spec_path = args.get("spec")) {
    auto json = load_json(*spec_path);
    if (!json) return Err{json.error()};
    return monitor::MonitorSpec::from_json(json.value());
  }

  monitor::MonitorSpec spec;
  if (args.has("all-resolvers")) {
    for (const auto& s : resolver::paper_resolver_list()) {
      spec.base.resolvers.push_back(s.hostname);
    }
  } else {
    spec.base.resolvers = args.list("resolvers");
  }
  spec.base.vantage_ids = args.list("vantages");
  if (args.has("domains")) spec.base.domains = args.list("domains");
  // Monitor epochs stand in for days; a few rounds per epoch keeps each
  // campaign short while the epoch axis carries the longitudinal signal.
  spec.base.rounds = args.integer("rounds", 3);
  spec.base.seed = args.u64("seed", spec.base.seed);
  if (const std::string* protocol = args.get("protocol")) {
    if (auto p = client::protocol_from_string(*protocol); p.has_value()) {
      spec.base.protocol = *p;
    } else {
      return Err{std::string("unknown protocol: ") + *protocol};
    }
  }
  spec.epochs = args.integer("epochs", spec.epochs);
  spec.slo.window_epochs = args.integer("window", spec.slo.window_epochs);
  spec.outages = std::move(outages);
  return spec;
}

// Reports a failed atomic write; the target path is left untouched.
bool committed(const Result<void>& written) {
  if (written) return true;
  std::fprintf(stderr, "error: %s\n", written.error().c_str());
  return false;
}

bool write_file(const std::string& path, std::string_view content) {
  return committed(util::write_file_atomic(path, content));
}

int cmd_run(const cli::Args& args) {
  std::vector<monitor::OutageScript> scripts;
  for (const std::string& text : args.all("outage")) {
    auto script = parse_outage(text);
    if (!script) return cli::usage_error(kCli, script.error());
    scripts.push_back(std::move(script).value());
  }
  auto spec = build_spec(args, std::move(scripts));
  if (!spec) {
    std::fprintf(stderr, "error: %s\n", spec.error().c_str());
    return 2;
  }
  const int threads = args.integer("threads", 1);

  std::fprintf(stderr, "monitoring %zu resolvers x %zu vantages: %d epochs x %d rounds (%s)...\n",
               spec.value().base.resolvers.size(), spec.value().base.vantage_ids.size(),
               spec.value().epochs, spec.value().base.rounds,
               std::string(client::to_string(spec.value().base.protocol)).c_str());

  auto result = monitor::run_monitor(spec.value(), threads);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 2;
  }
  const monitor::MonitorResult& mon = result.value();

  const std::string path = args.text("out", "monitor.json");
  {
    util::AtomicFileWriter file(path);
    mon.write_json([&file](std::string_view bytes) { file.append(bytes); });
    if (!committed(file.commit())) return 3;
  }
  if (const std::string* p = args.get("series-out")) {
    if (!write_file(*p, mon.series.jsonl())) return 3;
  }
  if (const std::string* p = args.get("series-bin")) {
    const util::Bytes blob = mon.series.to_binary();
    if (!write_file(*p, std::string_view(reinterpret_cast<const char*>(blob.data()),
                                         blob.size()))) {
      return 3;
    }
  }
  if (const std::string* p = args.get("slo-out")) {
    util::JsonArray arr;
    arr.reserve(mon.slos.size());
    for (const monitor::SloSample& s : mon.slos) arr.push_back(s.to_json());
    if (!write_file(*p, util::Json(std::move(arr)).dump(2) + "\n")) return 3;
  }
  if (const std::string* p = args.get("events-out")) {
    if (!write_file(*p, monitor::events_to_json(mon.events).dump(2) + "\n")) return 3;
  }

  std::size_t outages = 0;
  for (const monitor::MonitorEvent& e : mon.events) outages += e.type == "outage" ? 1 : 0;
  std::fprintf(stderr, "%zu series points, %zu slo samples, %zu events (%zu outages) -> %s\n",
               mon.series.size(), mon.slos.size(), mon.events.size(), outages, path.c_str());
  return 0;
}

int cmd_slo(const cli::Args& args, const monitor::MonitorResult& mon) {
  if (args.has("json")) {
    util::JsonArray arr;
    arr.reserve(mon.slos.size());
    for (const monitor::SloSample& s : mon.slos) arr.push_back(s.to_json());
    std::printf("%s\n", util::Json(std::move(arr)).dump(2).c_str());
    return 0;
  }
  std::printf("%-12s %-28s %5s %9s %9s %8s %8s %8s  %s\n", "vantage", "resolver", "epoch",
              "avail%", "win-av%", "p50", "p95", "p99", "state");
  for (const monitor::SloSample& s : mon.slos) {
    std::printf("%-12s %-28s %5d %8.2f%% %8.2f%% %8.1f %8.1f %8.1f  %s\n", s.vantage.c_str(),
                s.resolver.c_str(), s.epoch, s.availability * 100.0,
                s.window_availability * 100.0, s.p50_ms, s.p95_ms, s.p99_ms, s.state.c_str());
  }
  return 0;
}

int cmd_diagnose(const cli::Args& args, const monitor::MonitorResult& mon) {
  monitor::DiagnoseOptions opts;
  opts.baseline_epochs = args.integer("baseline", opts.baseline_epochs);
  if (args.has("exemplars")) {
    opts.max_exemplars = static_cast<std::size_t>(args.integer("exemplars", 0));
  }
  auto report = monitor::diagnose_events(mon, 1, opts);
  if (!report) {
    std::fprintf(stderr, "error: %s\n", report.error().c_str());
    return 2;
  }
  const std::string payload = report.value().to_json().dump(2) + "\n";
  if (const std::string* out_path = args.get("out")) {
    if (!write_file(*out_path, payload)) return 3;
  }
  if (args.has("json")) {
    std::fputs(payload.c_str(), stdout);
  } else {
    std::fputs(monitor::render_diagnosis_report(report.value()).c_str(), stdout);
  }
  return 0;
}

int tool_main(const cli::Args& args) {
  const std::vector<std::string>& positionals = args.positionals();
  if (positionals.size() != 1) {
    return cli::usage_error(kCli, "expected one command (run|slo|events|diagnose|export)");
  }
  const std::string& command = positionals.front();
  if (command == "run") return cmd_run(args);
  if (command != "slo" && command != "events" && command != "diagnose" && command != "export") {
    return cli::usage_error(kCli, "unknown command '" + command + "'");
  }
  if (command == "export" && !args.has("prom")) {
    return cli::usage_error(kCli, "export needs --prom");
  }
  const std::string* in_path = args.get("in");
  if (in_path == nullptr) return cli::usage_error(kCli, command + " needs --in monitor.json");
  auto result = load_result(*in_path);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }
  if (command == "slo") return cmd_slo(args, result.value());
  if (command == "diagnose") return cmd_diagnose(args, result.value());
  if (command == "events") {
    std::printf("%s\n", monitor::events_to_json(result.value().events).dump(2).c_str());
  } else {
    std::printf("%s", monitor::to_prometheus(result.value().series).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
