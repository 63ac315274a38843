#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/campaign.h"
#include "core/parallel_campaign.h"

namespace ednsm::core {
namespace {

MeasurementSpec tiny_spec() {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 4;
  spec.seed = 77;
  return spec;
}

TEST(Campaign, RecordCountsMatchSpec) {
  SimWorld world(tiny_spec().seed);
  CampaignRunner runner(world, tiny_spec());
  const CampaignResult result = runner.run();
  // rounds x vantages x resolvers x domains records.
  EXPECT_EQ(result.records.size(), 4u * 1u * 3u * 3u);
  // rounds x vantages x resolvers pings.
  EXPECT_EQ(result.pings.size(), 4u * 1u * 3u);
}

TEST(Campaign, RecordsCarryIdentity) {
  SimWorld world(1);
  CampaignRunner runner(world, tiny_spec());
  const CampaignResult result = runner.run();
  for (const ResultRecord& r : result.records) {
    EXPECT_EQ(r.vantage, "ec2-ohio");
    EXPECT_FALSE(r.resolver.empty());
    EXPECT_FALSE(r.domain.empty());
    EXPECT_EQ(r.protocol, client::Protocol::DoH);
    if (r.ok) {
      EXPECT_GT(r.response_ms, 0.0);
      EXPECT_FALSE(r.rcode.empty());
    } else {
      EXPECT_FALSE(r.error_class.empty());
    }
  }
}

TEST(Campaign, DeterministicForSeed) {
  auto run = [] {
    SimWorld world(123);
    MeasurementSpec spec = tiny_spec();
    spec.seed = 123;
    return CampaignRunner(world, spec).run();
  };
  const CampaignResult a = run();
  const CampaignResult b = run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].resolver, b.records[i].resolver);
    EXPECT_DOUBLE_EQ(a.records[i].response_ms, b.records[i].response_ms);
    EXPECT_EQ(a.records[i].ok, b.records[i].ok);
  }
  ASSERT_EQ(a.pings.size(), b.pings.size());
  for (std::size_t i = 0; i < a.pings.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pings[i].rtt_ms, b.pings[i].rtt_ms);
  }
}

TEST(Campaign, DifferentSeedsProduceDifferentSamples) {
  SimWorld w1(1), w2(2);
  MeasurementSpec spec = tiny_spec();
  const CampaignResult a = CampaignRunner(w1, spec).run();
  const CampaignResult b = CampaignRunner(w2, spec).run();
  ASSERT_EQ(a.records.size(), b.records.size());
  int different = 0;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].response_ms != b.records[i].response_ms) ++different;
  }
  EXPECT_GT(different, static_cast<int>(a.records.size() / 2));
}

TEST(Campaign, InvalidSpecThrows) {
  SimWorld world(1);
  MeasurementSpec bad = tiny_spec();
  bad.rounds = 0;
  CampaignRunner runner(world, bad);
  EXPECT_THROW((void)runner.run(), std::invalid_argument);
}

TEST(Campaign, RunnerRejectsMultiVantageSpec) {
  // A world is one probing machine; several vantages take the sharded engine.
  SimWorld world(1);
  MeasurementSpec spec = tiny_spec();
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt"};
  CampaignRunner runner(world, spec);
  try {
    (void)runner.run();
    FAIL() << "a two-vantage spec must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_parallel_campaign"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, RoundsStartAtMultiplesOfInterval) {
  // On a fresh world, round r's first query goes out at exactly
  // r x round_interval of simulated time.
  SimWorld world(6);
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 3;
  const CampaignResult result = CampaignRunner(world, spec).run();
  std::vector<double> earliest(static_cast<std::size_t>(spec.rounds),
                               std::numeric_limits<double>::infinity());
  for (const ResultRecord& r : result.records) {
    double& e = earliest.at(static_cast<std::size_t>(r.round));
    e = std::min(e, r.issued_at_ms);
  }
  for (int r = 0; r < spec.rounds; ++r) {
    EXPECT_EQ(earliest[static_cast<std::size_t>(r)], netsim::to_ms(spec.round_interval * r))
        << "round " << r;
  }
}

TEST(Campaign, ResponseTimeAccessors) {
  SimWorld world(5);
  const CampaignResult result = CampaignRunner(world, tiny_spec()).run();
  const auto rts = result.response_times("ec2-ohio", "dns.google");
  EXPECT_GT(rts.size(), 6u);  // 12 queries, few failures at most
  const auto pings = result.ping_times("ec2-ohio", "dns.google");
  EXPECT_GT(pings.size(), 2u);
  EXPECT_TRUE(result.response_times("ec2-seoul", "dns.google").empty());
}

TEST(Campaign, JsonRoundTrip) {
  SimWorld world(9);
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 2;
  const CampaignResult result = CampaignRunner(world, spec).run();

  std::ostringstream os;
  result.write_json(os);
  auto parsed = util::Json::parse(os.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  auto round = CampaignResult::from_json(parsed.value());
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().records.size(), result.records.size());
  EXPECT_EQ(round.value().pings.size(), result.pings.size());
  EXPECT_EQ(round.value().spec.resolvers, spec.resolvers);
  // Availability is rebuilt from records.
  EXPECT_EQ(round.value().availability.overall().successes,
            result.availability.overall().successes);
  EXPECT_EQ(round.value().availability.overall().errors,
            result.availability.overall().errors);
}

// A record of an unparseable domain carries its failure stage from the
// probe on, so loading a results file and writing it again gives the same
// bytes.
TEST(Campaign, UnparseableDomainRoundTripsByteIdentical) {
  MeasurementSpec spec = tiny_spec();
  spec.resolvers = {"dns.google"};
  spec.domains = {"google.com", "a..b"};
  spec.rounds = 1;
  const CampaignResult result = run_parallel_campaign(spec);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[1].error_class, "malformed");
  EXPECT_EQ(result.records[1].failure_stage, "query");

  std::ostringstream written;
  result.write_json(written);
  auto parsed = util::Json::parse(written.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  auto loaded = CampaignResult::from_json(parsed.value());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  std::ostringstream rewritten;
  loaded.value().write_json(rewritten);
  EXPECT_EQ(rewritten.str(), written.str());
}

TEST(Campaign, MultiVantageRecordsAllVantages) {
  MeasurementSpec spec = tiny_spec();
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt", "home-chicago-1"};
  spec.rounds = 2;
  const CampaignResult result = run_parallel_campaign(spec);
  for (const std::string& vid : spec.vantage_ids) {
    int count = 0;
    for (const ResultRecord& r : result.records) {
      if (r.vantage == vid) ++count;
    }
    EXPECT_EQ(count, 2 * 3 * 3) << vid;
  }
}

// ---- availability ledger ----------------------------------------------------------

TEST(Availability, CountsAndClasses) {
  AvailabilityLedger ledger;
  ResultRecord ok;
  ok.vantage = "v";
  ok.resolver = "r";
  ok.ok = true;
  ResultRecord bad = ok;
  bad.ok = false;
  bad.error_class = "connect-timeout";

  ledger.record(ok);
  ledger.record(ok);
  ledger.record(bad);
  EXPECT_EQ(ledger.overall().successes, 2u);
  EXPECT_EQ(ledger.overall().errors, 1u);
  EXPECT_NEAR(ledger.overall().error_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(ledger.per_resolver("r").total(), 3u);
  EXPECT_EQ(ledger.per_pair("v", "r").errors, 1u);
  EXPECT_EQ(ledger.dominant_error_class(), "connect-timeout");
}

TEST(Availability, UnresponsivePredicate) {
  AvailabilityLedger ledger;
  ResultRecord bad;
  bad.vantage = "v";
  bad.resolver = "dead";
  bad.ok = false;
  bad.error_class = "timeout";
  ledger.record(bad);
  EXPECT_TRUE(ledger.unresponsive_from("v", "dead"));
  EXPECT_FALSE(ledger.unresponsive_from("v", "never-measured"));

  ResultRecord ok = bad;
  ok.ok = true;
  ledger.record(ok);
  EXPECT_FALSE(ledger.unresponsive_from("v", "dead"));
}

TEST(Availability, EmptyLedger) {
  AvailabilityLedger ledger;
  EXPECT_EQ(ledger.overall().total(), 0u);
  EXPECT_DOUBLE_EQ(ledger.overall().error_rate(), 0.0);
  EXPECT_EQ(ledger.dominant_error_class(), "");
}

// ---- world ---------------------------------------------------------------------

TEST(World, VantageIsCachedAndQuirked) {
  SimWorld world(4);
  auto& v1 = world.vantage("home-chicago-1");
  auto& v2 = world.vantage("home-chicago-1");
  EXPECT_EQ(&v1, &v2);
  EXPECT_TRUE(v1.info.is_home());
  EXPECT_THROW((void)world.vantage("nope"), std::out_of_range);
}

TEST(World, FleetCoversWholeRegistry) {
  SimWorld world(4);
  EXPECT_EQ(world.fleet().specs().size(), resolver::paper_resolver_list().size());
}

// ---- measured-only worlds --------------------------------------------------------

// An anycast resolver, a unicast one, an ODoH target and a hostname outside
// the registry, as run_shard builds them from spec.resolvers.
const std::vector<std::string> kMeasured = {"dns.google", "doh.ffmuc.net",
                                            "odoh-target.alekberg.net", "not-in.registry"};

struct CampaignBytes {
  std::size_t records = 0;
  std::string results;
  std::string trace;
  std::string metrics;
};

CampaignBytes run_traced(SimWorld& world, const MeasurementSpec& spec) {
  world.tracer().enable();
  const CampaignResult result = CampaignRunner(world, spec).run();
  CampaignBytes out;
  out.records = result.records.size();
  std::ostringstream results;
  result.write_json(results, 0);
  out.results = results.str();
  out.trace = world.tracer().drain().to_json().dump();
  obs::Metrics metrics;
  world.collect_metrics(metrics);
  std::ostringstream jsonl;
  metrics.write_jsonl(jsonl);
  out.metrics = jsonl.str();
  return out;
}

TEST(World, MeasuredOnlyWorldMatchesFullWorldInEveryCell) {
  for (const client::Protocol protocol :
       {client::Protocol::Do53, client::Protocol::DoT, client::Protocol::DoH,
        client::Protocol::DoQ, client::Protocol::ODoH}) {
    for (const transport::ReusePolicy reuse :
         {transport::ReusePolicy::None, transport::ReusePolicy::Keepalive,
          transport::ReusePolicy::TicketResumption}) {
      SCOPED_TRACE(std::string(client::to_string(protocol)) + " " +
                   std::string(transport::to_string(reuse)));
      MeasurementSpec spec;
      spec.resolvers = kMeasured;
      spec.vantage_ids = {"home-chicago-1"};
      spec.rounds = 2;
      spec.seed = 20260808;
      spec.protocol = protocol;
      spec.query_options.reuse = reuse;
      SimWorld full(spec.seed);
      SimWorld measured(spec.seed, spec.resolvers);
      const CampaignBytes want = run_traced(full, spec);
      const CampaignBytes got = run_traced(measured, spec);
      EXPECT_EQ(want.records, 2u * kMeasured.size() * spec.domains.size());
      EXPECT_EQ(got.results, want.results);
      EXPECT_EQ(got.trace, want.trace);
      EXPECT_EQ(got.metrics, want.metrics);
    }
  }
}

TEST(World, MeasuredOnlyWorldBuildsOnlyMeasuredSitesWhereTheFullWorldDoes) {
  const std::uint64_t seed = 20260808;
  SimWorld full(seed);
  SimWorld measured(seed, kMeasured);

  // The network stream stands where the full fleet leaves it: every skipped
  // site took its listeners' draws (1 DoT + 1 DoH + 2 DoQ).
  EXPECT_EQ(measured.net().rng().next_u64(), full.net().rng().next_u64());

  // Every skipped site took its address: built sites and the vantage hosts
  // attached after the fleet keep theirs.
  for (const geo::VantagePoint& vp : geo::paper_vantage_points()) {
    for (const std::string& hostname : kMeasured) {
      EXPECT_EQ(measured.fleet().address_for(hostname, vp.location),
                full.fleet().address_for(hostname, vp.location))
          << hostname << " from " << vp.id;
    }
    EXPECT_EQ(measured.vantage(vp.id).addr, full.vantage(vp.id).addr) << vp.id;
  }

  std::size_t built = 0;
  for (const resolver::ResolverSpec& spec : resolver::paper_resolver_list()) {
    const bool is_measured =
        std::find(kMeasured.begin(), kMeasured.end(), spec.hostname) != kMeasured.end();
    EXPECT_EQ(measured.fleet().sites_of(spec.hostname).size(),
              is_measured ? spec.sites.size() : 0u)
        << spec.hostname;
    if (is_measured) ++built;
  }
  EXPECT_EQ(built, 3u);
  EXPECT_EQ(measured.fleet().specs().size(), built);
  EXPECT_FALSE(measured.fleet().address_for("ordns.he.net", geo::city::kChicago).has_value());
}

TEST(World, ResolverMetricsAccountForEveryQuery) {
  CampaignObsOptions obs_options;
  obs_options.metrics = true;
  for (const client::Protocol protocol : {client::Protocol::DoH, client::Protocol::DoQ}) {
    SCOPED_TRACE(std::string(client::to_string(protocol)));
    MeasurementSpec spec = tiny_spec();
    spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt"};
    spec.rounds = 3;
    spec.protocol = protocol;
    CampaignObsData data;
    (void)run_parallel_campaign(spec, 1, obs_options, &data);
    const obs::Metrics& m = data.metrics;
    EXPECT_GT(m.counter("resolver.queries"), 0u);
    EXPECT_GT(m.counter("resolver.warm_hits"), 0u);
    EXPECT_EQ(m.counter("resolver.cache_hits") + m.counter("resolver.warm_hits") +
                  m.counter("resolver.cache_misses") + m.counter("resolver.formerrs"),
              m.counter("resolver.queries"));
    const std::string per_protocol =
        protocol == client::Protocol::DoQ ? "resolver.doq_requests" : "resolver.doh_requests";
    EXPECT_GT(m.counter(per_protocol), 0u);
  }
}


TEST(Campaign, SequentialCampaignsInOneWorld) {
  // The paper's follow-up spans: campaigns run back-to-back in one world,
  // each scheduling relative to the simulation's current time.
  SimWorld world(88);
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 2;
  const CampaignResult first = CampaignRunner(world, spec).run();
  const CampaignResult second = CampaignRunner(world, spec).run();  // must not assert
  EXPECT_EQ(first.records.size(), second.records.size());
  // The second span's records carry later timestamps.
  EXPECT_GT(second.records.front().issued_at_ms, first.records.back().issued_at_ms - 1.0);
}

TEST(Campaign, OutageIsObservedAndClears) {
  SimWorld world(89);
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 2;
  spec.resolvers = {"dns.google", "kronos.plan9-dns.com"};

  world.fleet().set_offline("kronos.plan9-dns.com", true);
  const CampaignResult down = CampaignRunner(world, spec).run();
  EXPECT_TRUE(down.availability.unresponsive_from("ec2-ohio", "kronos.plan9-dns.com"));
  EXPECT_FALSE(down.availability.unresponsive_from("ec2-ohio", "dns.google"));
  // Every failed record is a connection failure, like a real dark host.
  for (const ResultRecord& r : down.records) {
    if (r.resolver == "kronos.plan9-dns.com") {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error_class, "connect-timeout");
    }
  }

  world.fleet().set_offline("kronos.plan9-dns.com", false);
  const CampaignResult up = CampaignRunner(world, spec).run();
  EXPECT_FALSE(up.availability.unresponsive_from("ec2-ohio", "kronos.plan9-dns.com"));
}

TEST(Campaign, OutageSilencesDo53Too) {
  SimWorld world(90);
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 1;
  spec.protocol = client::Protocol::Do53;
  spec.resolvers = {"kronos.plan9-dns.com"};
  world.fleet().set_offline("kronos.plan9-dns.com", true);
  const CampaignResult result = CampaignRunner(world, spec).run();
  for (const ResultRecord& r : result.records) EXPECT_FALSE(r.ok);
}

TEST(Campaign, DoqCampaignRuns) {
  SimWorld world(91);
  MeasurementSpec spec = tiny_spec();
  spec.protocol = client::Protocol::DoQ;
  spec.rounds = 2;
  const CampaignResult result = CampaignRunner(world, spec).run();
  EXPECT_EQ(result.records.size(), 2u * 3u * 3u);
  int ok = 0;
  for (const ResultRecord& r : result.records) {
    EXPECT_EQ(r.protocol, client::Protocol::DoQ);
    if (r.ok) ++ok;
  }
  EXPECT_GT(ok, 12);
}

}  // namespace
}  // namespace ednsm::core
