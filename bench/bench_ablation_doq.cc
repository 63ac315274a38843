// Ablation: DNS-over-QUIC (RFC 9250) vs DoH/DoT — the protocol the
// encrypted-DNS ecosystem is moving toward, and a natural extension of the
// paper's measurement matrix. QUIC folds transport and crypto setup into one
// flight, so:
//   cold:      DoQ = 2 RTT   vs  DoH/DoT = 3 RTT
//   0-RTT:     DoQ = 1 RTT   (query rides the first packet)
//   keepalive: all equal     (1 RTT; setup amortized away)
#include "common.h"

#include "client/doh.h"
#include "client/doq.h"
#include "client/dot.h"
#include "stats/quantile.h"

using namespace ednsm;

namespace {

struct Cell {
  const char* label;
  client::Protocol protocol;
  transport::ReusePolicy policy;
  bool early_data;
};

double run_cell(const Cell& cell, int queries) {
  core::SimWorld world(bench::kDefaultSeed);
  auto& vantage = world.vantage("ec2-ohio");
  const auto server = world.fleet().address_for("dns.google", vantage.info.location);
  const netsim::Endpoint doq_remote{*server, netsim::kPortDoq};

  client::QueryOptions options;
  options.reuse = cell.policy;
  options.offer_early_data = cell.early_data;
  options.use_http2 = !cell.early_data;  // DoH 0-RTT path rides HTTP/1.1

  client::DotClient dot(world.net(), *vantage.pool, options);
  client::DohClient doh(world.net(), *vantage.pool, options);
  client::DoqClient doq(world.net(), *vantage.pool, options);
  const dns::Name name = dns::Name::parse("google.com").value();

  std::vector<double> times;
  auto record = [&](client::QueryOutcome o) {
    if (o.ok) times.push_back(netsim::to_ms(o.timing.total));
  };
  for (int i = 0; i < queries; ++i) {
    switch (cell.protocol) {
      case client::Protocol::DoT:
        dot.query(*server, "dns.google", name, dns::RecordType::A, record);
        break;
      case client::Protocol::DoH:
        doh.query(*server, "dns.google", name, dns::RecordType::A, record);
        break;
      case client::Protocol::DoQ:
        doq.query(*server, "dns.google", name, dns::RecordType::A, record);
        break;
      default:
        break;
    }
    world.run();
    if (cell.early_data) {
      // Force a fresh (resumed) connection so each query exercises 0-RTT.
      vantage.pool->invalidate({*server, netsim::kPortHttps}, "dns.google");
      vantage.pool->invalidate(doq_remote, "dns.google");
    }
  }
  if (cell.policy != transport::ReusePolicy::None && times.size() > 1) {
    times.erase(times.begin());  // drop the unavoidable cold start
  }
  return stats::median(times);
}

}  // namespace

int main() {
  const Cell cells[] = {
      {"DoT  cold", client::Protocol::DoT, transport::ReusePolicy::None, false},
      {"DoH  cold", client::Protocol::DoH, transport::ReusePolicy::None, false},
      {"DoQ  cold", client::Protocol::DoQ, transport::ReusePolicy::None, false},
      {"DoT  keepalive", client::Protocol::DoT, transport::ReusePolicy::Keepalive, false},
      {"DoH  keepalive", client::Protocol::DoH, transport::ReusePolicy::Keepalive, false},
      {"DoQ  keepalive", client::Protocol::DoQ, transport::ReusePolicy::Keepalive, false},
      {"DoH  0-RTT", client::Protocol::DoH, transport::ReusePolicy::TicketResumption, true},
      {"DoQ  0-RTT", client::Protocol::DoQ, transport::ReusePolicy::TicketResumption, true},
  };

  std::printf("Encrypted transport ladder to dns.google from EC2 Ohio (median ms)\n\n");
  std::printf("%-16s %12s\n", "cell", "median (ms)");
  std::printf("------------------------------\n");
  for (const Cell& cell : cells) {
    std::printf("%-16s %12.2f\n", cell.label, run_cell(cell, 40));
  }
  std::printf("\nExpected shape: cold DoQ saves one RTT over DoH/DoT; 0-RTT DoQ\n"
              "approaches the keepalive floor; keepalive equalizes everything.\n");
  return 0;
}
