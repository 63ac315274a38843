#include "core/campaign.h"

#include <ostream>

#include "obs/trace.h"
#include <stdexcept>

namespace ednsm::core {

PairSampleIndex PairSampleIndex::build(const std::vector<ResultRecord>& records,
                                       const std::vector<PingRecord>& pings) {
  PairSampleIndex idx;
  for (const ResultRecord& r : records) {
    if (!r.ok) continue;
    const auto key =
        util::InternTable::pair_key(idx.vantages_.intern(r.vantage), idx.resolvers_.intern(r.resolver));
    idx.responses_[key].push_back(r.response_ms);
  }
  for (const PingRecord& p : pings) {
    if (!p.ok) continue;
    const auto key =
        util::InternTable::pair_key(idx.vantages_.intern(p.vantage), idx.resolvers_.intern(p.resolver));
    idx.pings_[key].push_back(p.rtt_ms);
  }
  idx.records_indexed_ = records.size();
  idx.pings_indexed_ = pings.size();
  return idx;
}

namespace {
const std::vector<double>* lookup_pair(
    const util::InternTable& vantages, const util::InternTable& resolvers,
    const std::unordered_map<std::uint64_t, std::vector<double>>& samples,
    std::string_view vantage, std::string_view resolver) {
  const auto v = vantages.find(vantage);
  const auto r = resolvers.find(resolver);
  if (!v.has_value() || !r.has_value()) return nullptr;
  const auto it = samples.find(util::InternTable::pair_key(*v, *r));
  return it == samples.end() ? nullptr : &it->second;
}
}  // namespace

const std::vector<double>* PairSampleIndex::response_times(std::string_view vantage,
                                                           std::string_view resolver) const {
  return lookup_pair(vantages_, resolvers_, responses_, vantage, resolver);
}

const std::vector<double>* PairSampleIndex::ping_times(std::string_view vantage,
                                                       std::string_view resolver) const {
  return lookup_pair(vantages_, resolvers_, pings_, vantage, resolver);
}

const PairSampleIndex& CampaignResult::index() const {
  if (sample_index_ == nullptr || sample_index_->records_indexed() != records.size() ||
      sample_index_->pings_indexed() != pings.size()) {
    sample_index_ = std::make_shared<const PairSampleIndex>(PairSampleIndex::build(records, pings));
  }
  return *sample_index_;
}

std::vector<double> CampaignResult::response_times(const std::string& vantage,
                                                   const std::string& resolver) const {
  const std::vector<double>* samples = index().response_times(vantage, resolver);
  return samples == nullptr ? std::vector<double>{} : *samples;
}

std::vector<double> CampaignResult::ping_times(const std::string& vantage,
                                               const std::string& resolver) const {
  const std::vector<double>* samples = index().ping_times(vantage, resolver);
  return samples == nullptr ? std::vector<double>{} : *samples;
}

util::Json CampaignResult::to_json() const {
  util::JsonObject o;
  o["spec"] = spec.to_json();
  util::JsonArray recs;
  recs.reserve(records.size());
  for (const ResultRecord& r : records) recs.push_back(r.to_json());
  o["records"] = util::Json(std::move(recs));
  util::JsonArray pngs;
  pngs.reserve(pings.size());
  for (const PingRecord& p : pings) pngs.push_back(p.to_json());
  o["pings"] = util::Json(std::move(pngs));
  return util::Json(std::move(o));
}

Result<CampaignResult> CampaignResult::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("campaign: not an object")};
  CampaignResult out;
  auto spec = MeasurementSpec::from_json(j.at("spec"));
  if (!spec) return Err{spec.error()};
  out.spec = std::move(spec).value();

  if (!j.at("records").is_array()) return Err{std::string("campaign: missing records")};
  for (const util::Json& e : j.at("records").as_array()) {
    auto r = ResultRecord::from_json(e);
    if (!r) return Err{r.error()};
    out.availability.record(r.value());
    out.records.push_back(std::move(r).value());
  }
  if (j.at("pings").is_array()) {
    for (const util::Json& e : j.at("pings").as_array()) {
      auto p = PingRecord::from_json(e);
      if (!p) return Err{p.error()};
      out.pings.push_back(std::move(p).value());
    }
  }
  return out;
}

// Streams the to_json() layout: records and pings stream themselves
// (ResultRecord::write_json), so neither the document nor any record exists
// as a Json tree.
void CampaignResult::write_json(const std::function<void(std::string_view)>& sink,
                                int indent) const {
  util::JsonWriter w(sink, indent);
  w.begin_object();
  w.key("pings");
  w.array_of(pings);
  w.key("records");
  w.array_of(records);
  w.key("spec");
  w.value(spec.to_json());
  w.end_object();
  w.finish();
  sink("\n");
}

void CampaignResult::write_json(std::ostream& os, int indent) const {
  write_json([&os](std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }, indent);
}

CampaignRunner::CampaignRunner(SimWorld& world, MeasurementSpec spec)
    : world_(world), spec_(std::move(spec)) {}

CampaignResult CampaignRunner::run() {
  if (auto v = spec_.validate(); !v) {
    throw std::invalid_argument("CampaignRunner: invalid spec: " + v.error());
  }
  if (spec_.vantage_ids.size() != 1) {
    throw std::invalid_argument("CampaignRunner: a world measures exactly one vantage (got " +
                                std::to_string(spec_.vantage_ids.size()) +
                                "); run multi-vantage campaigns with run_parallel_campaign");
  }

  CampaignResult result;
  result.spec = spec_;
  const std::string& vantage_id = spec_.vantage_ids.front();
  // Campaigns may run back-to-back in one world (the paper's monthly
  // follow-up spans); rounds are spaced by round_interval from the current
  // simulated time.
  const netsim::SimTime base = world_.queue().now();
  const auto round_start = [&](int round) { return base + spec_.round_interval * round; };

  // Touch the vantage up front so host attachment (and therefore the RNG
  // consumption order) is independent of round scheduling.
  (void)world_.vantage(vantage_id);

  // Scripted outages: take the resolver offline at the start of from_round
  // and restore it at the start of to_round. Scheduled before the round
  // probes so same-instant ties (the queue fires ties in schedule order)
  // apply the fault before any query of that round. set_behavior draws no
  // RNG, so an empty fault list leaves the run byte-identical.
  for (const FaultWindow& w : spec_.fault_windows) {
    world_.queue().schedule_at(round_start(w.from_round), [this, hostname = w.resolver] {
      world_.fleet().set_offline(hostname, true);
    });
    world_.queue().schedule_at(round_start(w.to_round), [this, hostname = w.resolver] {
      world_.fleet().set_offline(hostname, false);
    });
  }

  for (int round = 0; round < spec_.rounds; ++round) {
    world_.queue().schedule_at(round_start(round), [this, &result, vantage_id, round] {
      OBS_SPAN(world_.queue(), "core", "round-dispatch");
      for (const std::string& hostname : spec_.resolvers) {
        PingProbe::run(world_, vantage_id, hostname, spec_.ping_timeout, round,
                       [&result](PingRecord rec) { result.pings.push_back(std::move(rec)); });
        DnsProbe::run(world_, vantage_id, hostname, spec_.domains, spec_.protocol,
                      spec_.query_options, round, [&result](std::vector<ResultRecord> recs) {
                        for (ResultRecord& r : recs) {
                          result.availability.record(r);
                          result.records.push_back(std::move(r));
                        }
                      });
      }
    });
  }

  world_.run();
  return result;
}

}  // namespace ednsm::core
