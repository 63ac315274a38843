// Reruns the paper's core experiment at example scale: measure a set of
// mainstream and non-mainstream DoH resolvers from the three EC2 vantage
// points, print a per-vantage ranking, and write the raw results to a JSON
// file (the tool's output format).
//
//   $ ./global_vantage_study [rounds] [output.json]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/parallel_campaign.h"
#include "report/figures.h"
#include "stats/quantile.h"

int main(int argc, char** argv) {
  using namespace ednsm;

  const int rounds = argc > 1 ? std::atoi(argv[1]) : 15;
  const char* out_path = argc > 2 ? argv[2] : "global_vantage_results.json";

  core::MeasurementSpec spec;
  spec.resolvers = {
      "dns.google", "security.cloudflare-dns.com", "dns.quad9.net",  // mainstream
      "ordns.he.net", "freedns.controld.com",                        // NA alternatives
      "dns0.eu", "dns.brahma.world", "doh.ffmuc.net",                // EU
      "dns.alidns.com", "public.dns.iij.jp", "dns.twnic.tw",         // Asia
  };
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt", "ec2-seoul"};
  spec.rounds = rounds;
  spec.seed = 7;

  const core::CampaignResult result = core::run_parallel_campaign(spec);

  for (const std::string& vantage : spec.vantage_ids) {
    std::printf("=== ranking from %s ===\n", vantage.c_str());
    // Sort resolvers by median response time at this vantage.
    std::vector<std::pair<double, std::string>> ranked;
    for (const std::string& host : spec.resolvers) {
      ranked.emplace_back(stats::median(result.response_times(vantage, host)), host);
    }
    std::sort(ranked.begin(), ranked.end());
    for (const auto& [med, host] : ranked) {
      const resolver::ResolverSpec* rs = resolver::find_resolver(host);
      std::printf("  %7.1f ms  %-28s %s\n", med, host.c_str(),
                  (rs != nullptr && rs->mainstream) ? "[mainstream]" : "");
    }
    std::printf("\n");
  }

  std::ofstream out(out_path);
  result.write_json(out);
  std::printf("raw results written to %s (%zu records)\n", out_path, result.records.size());
  return 0;
}
