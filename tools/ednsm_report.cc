// ednsm-report: render paper-style figures and tables from a results JSON
// produced by ednsm_measure.
//
// Usage:
//   ednsm_report results.json                          # summary + availability
//   ednsm_report results.json --figure NA --vantage ec2-ohio
//   ednsm_report results.json --remote-table Asia --near ec2-seoul --far ec2-frankfurt
//   ednsm_report results.json --winners ec2-ohio
//   ednsm_report results.json --flight-recorder 10
//   ednsm_report monitor.json --monitor-dashboard dashboard.html
//   ednsm_report monitor.json --monitor-dashboard dashboard.html --diagnosis diagnosis.json
//
// --diagnosis annotates the dashboard's event timeline and adds a verdict
// table from an `ednsm_monitor diagnose --out` report.
//
// Exit codes: 0 ok, 1 bad usage, 3 I/O / parse error.
#include <cstdio>
#include <fstream>
#include <optional>

#include "cli.h"
#include "core/campaign.h"
#include "core/recommend.h"
#include "monitor/monitor.h"
#include "report/decomposition.h"
#include "report/figures.h"
#include "report/flight_recorder.h"
#include "util/fs.h"
#include "web/dashboard.h"

using namespace ednsm;

namespace {

constexpr cli::Flag kFlags[] = {
    {"figure", "CONTINENT", "boxplots of NA, EU, Asia or Oceania resolvers"},
    {"vantage", "ID", "vantage for --figure (default: the spec's first)"},
    {"remote-table", "CONTINENT", "median table, near vs far vantage"},
    {"near", "ID", "near vantage for --remote-table"},
    {"far", "ID", "far vantage for --remote-table"},
    {"winners", "ID", "non-mainstream resolvers beating all mainstream"},
    {"recommend", "ID", "rank resolvers for this vantage"},
    {"decomposition", "table|figure", "cold/warm phase decomposition"},
    {"flight-recorder", "N", "the N slowest queries with their phases", cli::Type::Int, 1},
    {"monitor-dashboard", "FILE", "HTML dashboard (input: ednsm_monitor run output)"},
    {"diagnosis", "FILE", "annotate the dashboard with a diagnosis report"},
};
constexpr cli::Command kCli{"ednsm_report", "INPUT.json", kFlags};

std::optional<geo::Continent> parse_continent(std::string_view name) {
  if (name == "NA") return geo::Continent::NorthAmerica;
  if (name == "EU") return geo::Continent::Europe;
  if (name == "Asia") return geo::Continent::Asia;
  if (name == "Oceania") return geo::Continent::Oceania;
  return std::nullopt;
}

Result<util::Json> load_json(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{text.error()};
  return util::Json::parse(text.value());
}

int tool_main(const cli::Args& args) {
  if (args.positionals().size() != 1) return cli::usage_error(kCli, "expected one input file");
  // Flags are checked before the input is read.
  for (const char* flag : {"figure", "remote-table"}) {
    const std::string* name = args.get(flag);
    if (name != nullptr && !parse_continent(*name)) {
      return cli::usage_error(kCli, "--" + std::string(flag) +
                                        " wants NA, EU, Asia or Oceania (got " + *name + ")");
    }
  }
  if (args.has("remote-table") && (!args.has("near") || !args.has("far"))) {
    return cli::usage_error(kCli, "--remote-table needs --near and --far");
  }
  const std::string* decomposition = args.get("decomposition");
  if (decomposition != nullptr && *decomposition != "table" && *decomposition != "figure") {
    return cli::usage_error(kCli, "--decomposition takes 'table' or 'figure' (got " +
                                      *decomposition + ")");
  }

  auto json = load_json(args.positionals().front());
  if (!json) {
    std::fprintf(stderr, "error: %s\n", json.error().c_str());
    return 3;
  }

  // Dashboard mode reads a monitor result, not a campaign result — branch
  // before the campaign parse.
  if (const std::string* out_path = args.get("monitor-dashboard")) {
    auto mon = monitor::MonitorResult::from_json(json.value());
    if (!mon) {
      std::fprintf(stderr, "error: %s\n", mon.error().c_str());
      return 3;
    }
    monitor::DiagnosisReport diagnoses;
    bool have_diagnoses = false;
    if (const std::string* diagnosis_path = args.get("diagnosis")) {
      auto diag_json = load_json(*diagnosis_path);
      if (!diag_json) {
        std::fprintf(stderr, "error: %s\n", diag_json.error().c_str());
        return 3;
      }
      auto parsed = monitor::DiagnosisReport::from_json(diag_json.value());
      if (!parsed) {
        std::fprintf(stderr, "error: %s\n", parsed.error().c_str());
        return 3;
      }
      diagnoses = std::move(parsed).value();
      have_diagnoses = true;
    }
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return 3;
    }
    out << web::render_monitor_dashboard(mon.value(), have_diagnoses ? &diagnoses : nullptr);
    std::fprintf(stderr, "dashboard (%zu slo samples, %zu events, %zu diagnoses) -> %s\n",
                 mon.value().slos.size(), mon.value().events.size(), diagnoses.diagnoses.size(),
                 out_path->c_str());
    return 0;
  }

  auto result = core::CampaignResult::from_json(json.value());
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }

  if (const std::string* figure = args.get("figure")) {
    const std::string* vantage_flag = args.get("vantage");
    const std::string vantage =
        vantage_flag != nullptr ? *vantage_flag : result.value().spec.vantage_ids[0];
    const std::string title = *figure + "-located resolvers from " + vantage;
    std::printf("%s\n", report::render_figure(result.value(), vantage,
                                              *parse_continent(*figure), title)
                            .c_str());
    return 0;
  }

  if (const std::string* remote = args.get("remote-table")) {
    std::printf("%s\n", report::remote_median_table(result.value(), *parse_continent(*remote),
                                                    *args.get("near"), *args.get("far"))
                            .to_text()
                            .c_str());
    return 0;
  }

  if (const std::string* recommend = args.get("recommend")) {
    const std::string& vantage = *recommend;
    const core::RecommendationReport rec =
        core::recommend_resolvers(result.value(), vantage);
    std::printf("recommended resolvers from %s (best first):\n", vantage.c_str());
    for (const core::Recommendation& r : rec.ranked) {
      std::printf("  %7.1f ms med  %7.1f ms p90  %5.2f%% err  %s%s\n", r.median_ms,
                  r.p90_ms, r.error_rate * 100.0, r.hostname.c_str(),
                  r.mainstream ? "  [mainstream]" : "");
    }
    std::printf("rejected:\n");
    for (const core::Rejection& r : rec.rejected) {
      std::printf("  %-40s %s\n", r.hostname.c_str(),
                  std::string(core::to_string(r.reason)).c_str());
    }
    if (const auto alt = rec.best_alternative()) {
      std::printf("\nbest non-mainstream alternative: %s (%.1f ms median)\n",
                  alt->hostname.c_str(), alt->median_ms);
    }
    return 0;
  }

  if (decomposition != nullptr) {
    const std::string text = *decomposition == "table"
                                 ? report::phase_decomposition_table(result.value()).to_text()
                                 : report::render_cold_warm_figure(result.value());
    std::printf("%s\n", text.c_str());
    return 0;
  }

  if (args.has("flight-recorder")) {
    const auto top_n = static_cast<std::size_t>(args.integer("flight-recorder", 1));
    std::printf("%s", report::render_flight_recorder(result.value(), top_n).c_str());
    return 0;
  }

  if (const std::string* winners = args.get("winners")) {
    std::printf("non-mainstream resolvers beating every mainstream median from %s:\n",
                winners->c_str());
    for (const std::string& host : report::nonmainstream_winners(result.value(), *winners)) {
      std::printf("  %s\n", host.c_str());
    }
    return 0;
  }

  // Default: summary + availability.
  std::printf("campaign: %zu records, %zu pings, %zu resolvers, %zu vantages\n\n",
              result.value().records.size(), result.value().pings.size(),
              result.value().spec.resolvers.size(), result.value().spec.vantage_ids.size());
  std::printf("%s\n", report::availability_report(result.value()).c_str());
  std::printf("%s\n", report::max_median_table(result.value()).to_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
