#include "core/pipeline.h"

#include <algorithm>

#include "netsim/rng.h"
#include "util/bytes.h"
#include "util/strings.h"

namespace ednsm::core {

namespace {

// Move `from`'s elements into per-round buckets, preserving relative order.
template <typename Record>
std::vector<std::vector<Record>> bucket_by_round(std::vector<Record> from, int rounds) {
  std::vector<std::vector<Record>> buckets(static_cast<std::size_t>(rounds));
  for (Record& r : from) {
    buckets.at(static_cast<std::size_t>(r.round)).push_back(std::move(r));
  }
  return buckets;
}

}  // namespace

std::vector<std::uint64_t> shard_seeds(std::uint64_t spec_seed, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  std::uint64_t state = spec_seed;
  for (std::uint64_t& s : seeds) s = netsim::splitmix64(state);
  return seeds;
}

void collect_result_metrics(const CampaignResult& result, obs::Metrics& m) {
  const obs::Metrics::Key response_ms = m.distribution_key("campaign.response_ms");
  const obs::Metrics::Key exchange_ms = m.distribution_key("campaign.exchange_ms");
  const obs::Metrics::Key ping_rtt_ms = m.distribution_key("campaign.ping_rtt_ms");
  for (const ResultRecord& r : result.records) {
    m.add("campaign.records");
    if (r.ok) {
      m.add("campaign.records_ok");
      m.observe(response_ms, r.response_ms);
      m.observe(exchange_ms, r.exchange_ms);
      if (r.connection_reused) m.add("campaign.records_reused_connection");
    } else {
      m.add("campaign.records_failed");
      m.add("campaign.failure_stage." +
            (r.failure_stage.empty() ? std::string("unknown") : r.failure_stage));
      if (!r.error_class.empty()) m.add("campaign.error_class." + r.error_class);
    }
  }
  for (const PingRecord& p : result.pings) {
    m.add("campaign.pings");
    if (p.ok) {
      m.add("campaign.pings_ok");
      m.observe(ping_rtt_ms, p.rtt_ms);
    }
  }
}

std::vector<ShardPlan> expand_spec(const MeasurementSpec& spec) {
  const std::size_t n = spec.vantage_ids.size();
  const std::vector<std::uint64_t> seeds = shard_seeds(spec.seed, n);
  std::vector<ShardPlan> plans;
  plans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    plans.push_back(ShardPlan{i, spec.vantage_ids[i], seeds[i]});
  }
  return plans;
}

Result<ShardSlice> ShardSlice::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  const std::string_view view(text);
  unsigned long long k = 0;
  unsigned long long n = 0;
  if (slash == std::string::npos || !util::parse_u64(view.substr(0, slash), k) ||
      !util::parse_u64(view.substr(slash + 1), n)) {
    return Err{"shard slice must be k/N with decimal k and N, e.g. 0/4: " + text};
  }
  const ShardSlice slice{static_cast<std::size_t>(k), static_cast<std::size_t>(n)};
  if (!slice.valid()) {
    return Err{"shard slice needs 0 <= k < N: " + text};
  }
  return slice;
}

SliceBounds slice_bounds(std::size_t total, const ShardSlice& slice) {
  const std::size_t base = total / slice.n;
  const std::size_t rem = total % slice.n;
  SliceBounds b;
  b.begin = slice.k * base + std::min(slice.k, rem);
  b.end = b.begin + base + (slice.k < rem ? 1 : 0);
  return b;
}

std::vector<ShardPlan> slice_plans(const std::vector<ShardPlan>& plans, const ShardSlice& slice) {
  const SliceBounds b = slice_bounds(plans.size(), slice);
  return std::vector<ShardPlan>(plans.begin() + static_cast<std::ptrdiff_t>(b.begin),
                                plans.begin() + static_cast<std::ptrdiff_t>(b.end));
}

std::uint64_t spec_fingerprint(const MeasurementSpec& spec) {
  return util::fnv1a(spec.to_json().dump());
}

ShardOutcome run_shard(const MeasurementSpec& spec, const ShardPlan& plan,
                       const CampaignObsOptions& obs) {
  MeasurementSpec shard_spec = spec;
  shard_spec.vantage_ids = {plan.vantage};
  shard_spec.seed = plan.seed;

  ShardOutcome out;
  out.index = plan.index;
  out.vantage = plan.vantage;
  out.seed = plan.seed;

  SimWorld world(shard_spec.seed, shard_spec.resolvers);
  if (obs.trace) world.tracer().enable(obs.trace_capacity);
  out.result = CampaignRunner(world, shard_spec).run();
  if (obs.trace) out.trace = world.tracer().drain();
  if (obs.metrics) world.collect_metrics(out.metrics);
  return out;
}

ShardCollector::ShardCollector(MeasurementSpec spec, std::size_t shard_count,
                               CampaignObsOptions obs_options)
    : spec_(std::move(spec)),
      obs_(obs_options),
      records_by_shard_(shard_count),
      pings_by_shard_(shard_count),
      traces_(obs_options.trace ? shard_count : 0),
      metrics_(obs_options.metrics ? shard_count : 0),
      seen_(shard_count, false) {}

Result<void> ShardCollector::add(ShardOutcome outcome) {
  const std::size_t i = outcome.index;
  if (i >= seen_.size()) {
    return Err{"shard index " + std::to_string(i) + " out of range (expected " +
               std::to_string(seen_.size()) + " shards)"};
  }
  if (seen_[i]) {
    return Err{"duplicate shard index " + std::to_string(i)};
  }
  seen_[i] = true;
  ++collected_;
  total_records_ += outcome.result.records.size();
  total_pings_ += outcome.result.pings.size();
  records_by_shard_[i] = bucket_by_round(std::move(outcome.result.records), spec_.rounds);
  pings_by_shard_[i] = bucket_by_round(std::move(outcome.result.pings), spec_.rounds);
  if (obs_.trace) traces_[i] = std::move(outcome.trace);
  if (obs_.metrics) metrics_[i] = std::move(outcome.metrics);
  return {};
}

CampaignResult ShardCollector::finish(CampaignObsData* obs_out) {
  const std::size_t shards = seen_.size();

  // Shards merge in spec vantage order regardless of which worker (or
  // process) ran them, so the exported trace and metrics are topology
  // independent.
  if (obs_out != nullptr && obs_.trace) {
    for (std::size_t i = 0; i < shards; ++i) {
      obs_out->trace.add_shard("vantage/" + spec_.vantage_ids[i], std::move(traces_[i]));
    }
  }
  if (obs_out != nullptr && obs_.metrics) {
    for (const obs::Metrics& m : metrics_) obs_out->metrics.merge(m);
  }

  CampaignResult merged;
  merged.spec = spec_;

  // Canonical merge order: round-major, then vantage in spec order, records
  // within a (round, vantage) shard in their deterministic completion order
  // (which is resolver completion order within the round).
  merged.records.reserve(total_records_);
  merged.pings.reserve(total_pings_);
  for (int round = 0; round < spec_.rounds; ++round) {
    for (std::size_t i = 0; i < shards; ++i) {
      auto& recs = records_by_shard_[i][static_cast<std::size_t>(round)];
      for (ResultRecord& r : recs) {
        merged.availability.record(r);
        merged.records.push_back(std::move(r));
      }
      auto& pngs = pings_by_shard_[i][static_cast<std::size_t>(round)];
      for (PingRecord& p : pngs) merged.pings.push_back(std::move(p));
    }
  }
  if (obs_out != nullptr && obs_.metrics) collect_result_metrics(merged, obs_out->metrics);
  return merged;
}

}  // namespace ednsm::core
