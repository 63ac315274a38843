// Query-distribution strategies across multiple encrypted resolvers.
//
// The paper's related-work section motivates this directly: K-resolver
// (Hoang et al.) and Hounsel et al.'s distribution study spread queries over
// several DoH resolvers so no single operator sees the full browsing
// profile — "but designing a system to take advantage of multiple recursive
// resolvers must be informed about how the choice of resolver affects
// performance." This module provides those strategies on top of the
// measurement substrate, plus the privacy accounting needed to compare them.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/doh.h"
#include "core/world.h"

namespace ednsm::core {

enum class DistributionStrategy {
  SingleFastest,  // classic behaviour: one resolver gets everything
  RoundRobin,     // rotate per query
  UniformRandom,  // independent uniform choice per query
  HashSharded,    // resolver = hash(domain): each operator sees a fixed slice
  FastestK,       // uniform among the k fastest (performance-aware privacy)
};

[[nodiscard]] std::string_view to_string(DistributionStrategy s) noexcept;

// How much of the query stream each resolver observed.
class PrivacyLedger {
 public:
  void record(const std::string& resolver, const std::string& domain);

  // ednsm-lint: allow(hygiene-dead-function) — the PrivacyLedger.* tests and
  // DistFixture.ResolveRecordsPrivacyAndAnswers count recorded queries.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  // ednsm-lint: allow(hygiene-dead-function) — PrivacyLedger.SingleResolverSeesEverything checks
  // per-resolver counts with these two.
  [[nodiscard]] std::uint64_t queries_seen(const std::string& resolver) const;
  [[nodiscard]] std::size_t domains_seen(const std::string& resolver) const;

  // Fraction of all queries observed by the most-observing resolver
  // (1.0 = one operator profiles everything; 1/N = perfectly spread).
  [[nodiscard]] double max_share() const;

  // Shannon entropy (bits) of the per-resolver query distribution; log2(N)
  // is the maximum for N resolvers.
  [[nodiscard]] double entropy_bits() const;

  // Largest fraction of *distinct domains* any one resolver learned.
  [[nodiscard]] double max_domain_coverage() const;

 private:
  std::map<std::string, std::uint64_t> queries_;
  std::map<std::string, std::set<std::string>> domains_;
  std::set<std::string> all_domains_;
  std::uint64_t total_ = 0;
};

struct DistributorConfig {
  DistributionStrategy strategy = DistributionStrategy::RoundRobin;
  int k = 3;  // FastestK pool size
  std::uint64_t seed = 1;
  client::QueryOptions query_options;
};

// Distributes DoH queries from one vantage across a resolver set.
class QueryDistributor {
 public:
  QueryDistributor(SimWorld& world, std::string vantage_id,
                   std::vector<std::string> resolvers, DistributorConfig config);

  // Probe every resolver `probes` times (round-robin over `domains`) to rank
  // them by median response time; required before SingleFastest/FastestK.
  // Runs the event loop to completion.
  void calibrate(int probes = 3);

  // Pick the resolver for `domain` under the configured strategy (pure
  // selection; no query issued). Deterministic given (config.seed, history).
  [[nodiscard]] const std::string& pick(const std::string& domain);

  // Resolve `domain`: pick + DoH query + privacy accounting. The callback
  // also receives the resolver used. Drives no event loop; call world.run().
  using ResolveCallback =
      std::function<void(const std::string& resolver, client::QueryOutcome)>;
  void resolve(const std::string& domain, ResolveCallback cb);

  [[nodiscard]] const PrivacyLedger& privacy() const noexcept { return privacy_; }
  // ednsm-lint: allow(hygiene-dead-function) — DistFixture.CalibrationRanksLocalResolversFirst
  // checks the calibrated order.
  [[nodiscard]] const std::vector<std::string>& ranking() const noexcept { return ranking_; }

 private:
  SimWorld& world_;
  std::string vantage_id_;
  std::vector<std::string> resolvers_;
  DistributorConfig config_;
  netsim::Rng rng_;
  std::unique_ptr<client::DohClient> doh_;
  PrivacyLedger privacy_;
  std::vector<std::string> ranking_;  // fastest-first after calibrate()
  std::size_t round_robin_next_ = 0;
};

// Zipf-distributed browsing workload: `unique_domains` ranked by popularity
// with exponent `alpha` (web traffic is roughly alpha ~ 0.9-1.0). Returns
// `queries` domain names sampled from that distribution.
[[nodiscard]] std::vector<std::string> zipf_workload(std::size_t unique_domains,
                                                     std::size_t queries, double alpha,
                                                     std::uint64_t seed);

}  // namespace ednsm::core
