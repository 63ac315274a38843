// CampaignRunner: the per-world campaign kernel. It measures one vantage of a
// MeasurementSpec end-to-end in a SimWorld, the way one of the paper's
// probing machines runs its own copy of the tool; multi-vantage campaigns go
// through run_parallel_campaign (core/parallel_campaign.h), which gives each
// vantage its own world.
//
// Per round, every resolver gets one PingProbe and one DnsProbe (three
// domains, sequential) — the §3.2 measurement procedure. Probes to
// different resolvers run concurrently, like the tool's per-resolver loop
// pipelined across a round. Results accumulate into CampaignResult, which
// can be serialized to the tool's JSON output format and re-loaded.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "core/availability.h"
#include "util/intern.h"
#include "core/probe.h"
#include "core/spec.h"
#include "core/world.h"

namespace ednsm::core {

// Per-(vantage, resolver) sample index over a result's records. Report code
// asks for every pair of a 75-resolver x N-vantage campaign, which used to
// rescan (and string-compare) the full record vector per pair — O(pairs x
// records). One build pass groups samples by interned-symbol key instead.
class PairSampleIndex {
 public:
  static PairSampleIndex build(const std::vector<ResultRecord>& records,
                               const std::vector<PingRecord>& pings);

  // Samples (in record order) for the pair; nullptr when the pair has none.
  [[nodiscard]] const std::vector<double>* response_times(std::string_view vantage,
                                                          std::string_view resolver) const;
  [[nodiscard]] const std::vector<double>* ping_times(std::string_view vantage,
                                                      std::string_view resolver) const;

  [[nodiscard]] std::size_t records_indexed() const noexcept { return records_indexed_; }
  [[nodiscard]] std::size_t pings_indexed() const noexcept { return pings_indexed_; }

 private:
  util::InternTable vantages_;
  util::InternTable resolvers_;
  std::unordered_map<std::uint64_t, std::vector<double>> responses_;
  std::unordered_map<std::uint64_t, std::vector<double>> pings_;
  std::size_t records_indexed_ = 0;
  std::size_t pings_indexed_ = 0;
};

struct CampaignResult {
  MeasurementSpec spec;
  std::vector<ResultRecord> records;
  std::vector<PingRecord> pings;
  // ednsm-lint: allow(codec-parity) — derived: from_json rebuilds the ledger
  // from the records array, so serializing it would duplicate state.
  AvailabilityLedger availability;

  // Response-time samples (ms) for successful queries of one (vantage,
  // resolver) pair; empty when none succeeded. Served from index().
  [[nodiscard]] std::vector<double> response_times(const std::string& vantage,
                                                   const std::string& resolver) const;
  [[nodiscard]] std::vector<double> ping_times(const std::string& vantage,
                                               const std::string& resolver) const;

  // The lazily built sample index. Rebuilt when records/pings have grown or
  // shrunk since the last build; in-place edits that keep the sizes constant
  // are not detected (append-only accumulation is the supported pattern).
  // Not thread-safe: concurrent first calls on the same object race.
  [[nodiscard]] const PairSampleIndex& index() const;

  // The tool's JSON output (object with "spec", "records", "pings").
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<CampaignResult> from_json(const util::Json& j);

  // Both forms stream the to_json() layout followed by a newline; the sink
  // form hands the bytes over in chunks (e.g. to a util::AtomicFileWriter).
  void write_json(const std::function<void(std::string_view)>& sink, int indent = 2) const;
  void write_json(std::ostream& os, int indent = 2) const;

 private:
  // shared_ptr keeps CampaignResult copyable (copies share the cache until
  // either side rebuilds its own).
  mutable std::shared_ptr<const PairSampleIndex> sample_index_;
};

class CampaignRunner {
 public:
  CampaignRunner(SimWorld& world, MeasurementSpec spec);

  // Schedules all rounds and drains the event queue. Deterministic for a
  // given (spec, world seed). Throws std::invalid_argument on a spec that
  // fails validation or names more than one vantage (programming errors at
  // this layer).
  [[nodiscard]] CampaignResult run();

 private:
  SimWorld& world_;
  MeasurementSpec spec_;
};

}  // namespace ednsm::core
