// The paper's home-network angle: measure from all four Raspberry Pi-class
// home devices and the Ohio EC2 instance, then compare medians and
// variability (IQR) between the home and datacenter vantage classes —
// including the §4 cases where the two disagree (doh.la.ahadns.net,
// dns.twnic.tw).
//
//   $ ./home_network_study [rounds]
#include <cstdio>
#include <cstdlib>

#include "core/parallel_campaign.h"
#include "report/table.h"
#include "stats/quantile.h"

int main(int argc, char** argv) {
  using namespace ednsm;

  const int rounds = argc > 1 ? std::atoi(argv[1]) : 20;
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google", "dns.quad9.net", "ordns.he.net",
                    "doh.la.ahadns.net", "dns.twnic.tw", "kronos.plan9-dns.com"};
  spec.vantage_ids = {"home-chicago-1", "home-chicago-2", "home-chicago-3",
                      "home-chicago-4", "ec2-ohio"};
  spec.rounds = rounds;
  spec.seed = 11;

  const core::CampaignResult result = core::run_parallel_campaign(spec);

  // Pool the four home devices into one sample per resolver.
  auto home_samples = [&](const std::string& host) {
    std::vector<double> all;
    for (int unit = 1; unit <= 4; ++unit) {
      const auto v = result.response_times("home-chicago-" + std::to_string(unit), host);
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };

  report::Table table({"Resolver", "home med (ms)", "home IQR", "EC2 med (ms)", "EC2 IQR"});
  for (const std::string& host : spec.resolvers) {
    const auto home = stats::box_summary(home_samples(host));
    const auto ec2 = stats::box_summary(result.response_times("ec2-ohio", host));
    table.add_row({host, report::fmt(home.median), report::fmt(home.iqr()),
                   report::fmt(ec2.median), report::fmt(ec2.iqr())});
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("Expected (paper §4): home medians a few ms above EC2 for nearby\n"
              "resolvers; doh.la.ahadns.net and dns.twnic.tw markedly worse from\n"
              "home; ordns.he.net the fastest resolver from the home devices.\n");
  return 0;
}
