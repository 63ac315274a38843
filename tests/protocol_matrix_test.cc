// Pins what the five protocol clients produce: one small campaign per
// protocol x reuse cell, compared by the FNV-1a of its results file against
// a value committed here. A change to the clients that moves no record, RNG
// draw or scheduled event keeps every digest; one that moves any of them
// fails the cell it moved.
//
// Each campaign covers the full registry from one EC2 and one home vantage
// over three rounds, with dns.google offline for round 1. Every cell runs
// twice: at the default 5 s deadline (Do53 retransmits at 2 s) and at a
// 300 ms deadline that many cold queries miss, which pins connect-timeouts,
// timeouts after connect, answers that arrive after the deadline, and 0-RTT
// on the session that replaces an invalidated one. All ODoH probes share
// the world's one relay, so the ODoH cells also pin queries whose relay
// connection is torn down under them. Every domain parses.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/parallel_campaign.h"
#include "resolver/registry.h"
#include "util/bytes.h"

namespace ednsm::core {
namespace {

using client::Protocol;
using transport::ReusePolicy;

struct Cell {
  const char* name;
  Protocol protocol;
  ReusePolicy reuse;
  bool use_http2 = true;
  bool use_post = false;
  bool early_data = false;
  // FNV-1a of the results file at the 5 s and at the 300 ms deadline.
  std::uint64_t fnv1a_5s = 0;
  std::uint64_t fnv1a_300ms = 0;
};

MeasurementSpec cell_spec(const Cell& cell, netsim::SimDuration timeout) {
  MeasurementSpec spec;
  for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  spec.vantage_ids = {"ec2-frankfurt", "home-chicago-2"};
  spec.protocol = cell.protocol;
  spec.query_options.reuse = cell.reuse;
  spec.query_options.use_http2 = cell.use_http2;
  spec.query_options.use_post = cell.use_post;
  spec.query_options.offer_early_data = cell.early_data;
  spec.query_options.timeout = timeout;
  spec.rounds = 3;
  spec.seed = 20251019;
  spec.fault_windows = {FaultWindow{"dns.google", 1, 2}};
  return spec;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(ProtocolMatrix, ResultsMatchPinnedDigests) {
  const Cell cells[] = {
      {"Do53/none", Protocol::Do53, ReusePolicy::None, true, false, false,
       0x5c84219dd0e97351, 0x150e6c7e66750d26},
      {"Do53/keepalive", Protocol::Do53, ReusePolicy::Keepalive, true, false, false,
       0xafb703ec46481581, 0xe8f51e8f77df5624},
      {"Do53/ticket-resumption", Protocol::Do53, ReusePolicy::TicketResumption, true, false, false,
       0xcad2bedbd91f9aba, 0x72028d0cf8fb5ba1},
      {"DoT/none", Protocol::DoT, ReusePolicy::None, true, false, false,
       0x779d8f0ac775f457, 0x79af493c3193a1a7},
      {"DoT/keepalive", Protocol::DoT, ReusePolicy::Keepalive, true, false, false,
       0x296c55d1a1a31ee6, 0xd18a4c9ace67c87d},
      {"DoT/ticket-resumption", Protocol::DoT, ReusePolicy::TicketResumption, true, false, false,
       0x504a88100c75d73b, 0xbd1075f2d4b6829c},
      {"DoH/none", Protocol::DoH, ReusePolicy::None, true, false, false,
       0x574351c4c63a2d04, 0x525931b9b3a33aa3},
      {"DoH/keepalive", Protocol::DoH, ReusePolicy::Keepalive, true, false, false,
       0x30c2bf477eb12f5d, 0x21be90243e98b279},
      {"DoH/ticket-resumption", Protocol::DoH, ReusePolicy::TicketResumption, true, false, false,
       0xc3ba30bd9784cbcf, 0x537039d42457b544},
      {"DoH/h1-0rtt-get", Protocol::DoH, ReusePolicy::TicketResumption, false, false, true,
       0xd37d39fd61c38bb1, 0x9d20512940592100},
      {"DoH/h1-0rtt-post", Protocol::DoH, ReusePolicy::TicketResumption, false, true, true,
       0xc9d64ee6769f3208, 0xc3ae8783e9b8e60f},
      {"DoQ/none", Protocol::DoQ, ReusePolicy::None, true, false, false,
       0xed886e98294bab94, 0xcc5b381a9c9573ee},
      {"DoQ/keepalive", Protocol::DoQ, ReusePolicy::Keepalive, true, false, false,
       0x4962297b1477aac4, 0xd95d8b7c7b1b845a},
      {"DoQ/ticket-resumption", Protocol::DoQ, ReusePolicy::TicketResumption, true, false, false,
       0x82fcc21e1286a6c6, 0x85e9d24f18ac6efb},
      {"DoQ/0rtt", Protocol::DoQ, ReusePolicy::TicketResumption, true, false, true,
       0x800214268e3c02ce, 0x7f0d387ddfee3470},
      {"ODoH/none", Protocol::ODoH, ReusePolicy::None, true, false, false,
       0xede3145a3e89fd53, 0x11ad8bffcd946eef},
      {"ODoH/keepalive", Protocol::ODoH, ReusePolicy::Keepalive, true, false, false,
       0x546429305fb83973, 0xe0e9f7f678ff85cb},
      {"ODoH/ticket-resumption", Protocol::ODoH, ReusePolicy::TicketResumption, true, false, false,
       0xd3408c44aab45b17, 0x6b388fa2afa25114},
  };
  for (const Cell& cell : cells) {
    const std::pair<int, std::uint64_t> runs[] = {{5000, cell.fnv1a_5s},
                                                  {300, cell.fnv1a_300ms}};
    for (const auto& [timeout_ms, fnv1a] : runs) {
      const CampaignResult result =
          run_parallel_campaign(cell_spec(cell, std::chrono::milliseconds(timeout_ms)));
      std::ostringstream os;
      result.write_json(os);
      const std::string label =
          std::string(cell.name) + " at " + std::to_string(timeout_ms) + " ms";
      EXPECT_EQ(hex(util::fnv1a(os.str())), hex(fnv1a)) << label;

      if (cell.protocol == Protocol::ODoH) {
        int torn_down = 0;
        for (const ResultRecord& r : result.records) {
          if (r.error_detail == "odoh: could not reach relay") ++torn_down;
        }
        EXPECT_GT(torn_down, 0) << label;
      }
    }
  }
}

}  // namespace
}  // namespace ednsm::core
