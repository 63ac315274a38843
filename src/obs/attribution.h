// Root-cause attribution primitives: turn per-query evidence rows into the
// aggregates a diagnosis is argued from — failure-stage breakdowns, per-phase
// latency profiles (tcp/tls/quic/wait/exchange medians over successes),
// window-vs-baseline deltas, and exemplar queries for flight-recorder
// cross-links.
//
// The layer is deliberately generic: evidence rows carry plain strings and
// numbers (no core:: types), so obs stays below the engine tier in
// tools/lint/layers.conf. Rows have their own JSON codec because the monitor
// persists them with its result, so a diagnosis reads stored rows instead of
// re-running campaigns. Everything here is a pure function of its inputs
// in the SimTime domain — no clocks, no I/O — so diagnoses built on top
// inherit the toolkit's byte-identical-output guarantee.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace ednsm::obs {

// One query's worth of evidence, flattened from a campaign result record.
// The monitor records one row per query as it folds each epoch and persists
// the rows with its result (MonitorResult::evidence); diagnoses read them
// back and serialize only aggregates and exemplars.
struct QueryEvidence {
  std::string vantage;
  std::string resolver;
  std::string domain;
  int epoch = 0;
  int round = 0;
  bool ok = false;
  bool reused = false;        // connection was reused (warm)
  double response_ms = 0.0;
  double tcp_ms = 0.0;
  double tls_ms = 0.0;
  double quic_ms = 0.0;
  double wait_ms = 0.0;       // connection-pool wait
  double exchange_ms = 0.0;
  std::string failure_stage;  // "connect"|"handshake"|"query"|"timeout" ("" when ok)
  std::string error_class;    // "" when ok

  [[nodiscard]] util::Json to_json() const;
  // Strict: every field must be present with its type, since a persisted
  // row is the only copy of the query it describes.
  [[nodiscard]] static Result<QueryEvidence> from_json(const util::Json& j);
};

// Failure counts by stage over a window. `other` catches stages outside the
// taxonomy (unknown error classes) so total() always equals the failure count.
struct StageBreakdown {
  std::uint64_t connect = 0;
  std::uint64_t handshake = 0;
  std::uint64_t query = 0;
  std::uint64_t timeout = 0;
  std::uint64_t other = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return connect + handshake + query + timeout + other;
  }
  // Stage with the most failures; ties break in taxonomy order (connect,
  // handshake, query, timeout, other). "" when there are no failures.
  [[nodiscard]] std::string_view dominant() const noexcept;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<StageBreakdown> from_json(const util::Json& j);
};

// Aggregate profile of a window of evidence: availability plus per-phase
// latency medians over the successful queries (0 when none succeeded).
struct PhaseProfile {
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  double availability = 1.0;      // 1.0 when the window has no queries
  double reused_fraction = 0.0;   // successes served on a reused connection
  double response_ms = 0.0;       // medians over successes
  double tcp_ms = 0.0;
  double tls_ms = 0.0;
  double quic_ms = 0.0;
  double wait_ms = 0.0;
  double exchange_ms = 0.0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<PhaseProfile> from_json(const util::Json& j);
};

// Field-wise window minus baseline. Counts are not differenced — windows of
// different widths make raw count deltas meaningless.
struct PhaseDelta {
  double availability = 0.0;
  double reused_fraction = 0.0;
  double response_ms = 0.0;
  double tcp_ms = 0.0;
  double tls_ms = 0.0;
  double quic_ms = 0.0;
  double wait_ms = 0.0;
  double exchange_ms = 0.0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<PhaseDelta> from_json(const util::Json& j);
};

// One concrete query backing a diagnosis: enough coordinates to find the
// full record in the campaign output or the flight recorder. `flight_ref`
// is filled by the caller (it knows the resolver and ref convention).
struct Exemplar {
  std::string vantage;
  std::string domain;
  int epoch = 0;
  int round = 0;
  bool ok = false;
  double response_ms = 0.0;
  std::string failure_stage;  // "" for slow-success exemplars
  std::string error_class;
  std::string flight_ref;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<Exemplar> from_json(const util::Json& j);
};

// All three aggregations scan rows with from_epoch <= epoch <= to_epoch
// (inclusive, matching monitor event bounds); an empty or inverted range
// yields the default-constructed aggregate.
[[nodiscard]] StageBreakdown count_stages(const std::vector<QueryEvidence>& rows, int from_epoch,
                                          int to_epoch);
[[nodiscard]] PhaseProfile profile_phases(const std::vector<QueryEvidence>& rows, int from_epoch,
                                          int to_epoch);
[[nodiscard]] PhaseDelta phase_delta(const PhaseProfile& baseline, const PhaseProfile& window);

// Up to `limit` exemplars: failures first (ascending epoch, vantage, round,
// domain — earliest evidence of the problem), then the slowest successes
// (descending response_ms, same ascending tie-break).
[[nodiscard]] std::vector<Exemplar> pick_exemplars(const std::vector<QueryEvidence>& rows,
                                                   int from_epoch, int to_epoch,
                                                   std::size_t limit);

}  // namespace ednsm::obs
