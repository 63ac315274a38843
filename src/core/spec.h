// MeasurementSpec — what to measure — and the result records the tool emits.
//
// This mirrors the paper's tool: "clients provide a list of DoH resolvers
// they wish to perform measurements with. After a set of measurements
// complete with a list of DoH resolvers and domain names, the tool writes
// the results to a JSON file."
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "client/query.h"
#include "util/json.h"
#include "netsim/time.h"

namespace ednsm::core {

// A scripted resolver outage: every site of `resolver` is taken offline for
// rounds [from_round, to_round). Deterministic fault-schedule hook for the
// longitudinal monitor — tests inject an outage here and assert the detector
// recovers it exactly.
struct FaultWindow {
  std::string resolver;
  int from_round = 0;
  int to_round = 0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<FaultWindow> from_json(const util::Json& j);
};

struct MeasurementSpec {
  std::vector<std::string> resolvers;  // hostnames from the registry
  std::vector<std::string> domains = {"google.com", "amazon.com", "wikipedia.com"};
  std::vector<std::string> vantage_ids;  // geo::paper_vantage_points() ids
  client::Protocol protocol = client::Protocol::DoH;
  client::QueryOptions query_options;
  int rounds = 10;
  netsim::SimDuration round_interval = std::chrono::hours(8);  // "three times a day"
  netsim::SimDuration ping_timeout = std::chrono::seconds(3);
  std::uint64_t seed = 1;
  // Scripted outages applied by CampaignRunner; empty (the default) leaves
  // campaign behavior byte-identical to specs written before the field.
  std::vector<FaultWindow> fault_windows;

  // Validate invariants (non-empty lists, known vantage ids, positive
  // rounds); returns an explanation on failure.
  [[nodiscard]] Result<void> validate() const;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<MeasurementSpec> from_json(const util::Json& j);
};

// One DNS query result.
struct ResultRecord {
  std::string vantage;
  std::string resolver;
  std::string domain;
  client::Protocol protocol = client::Protocol::DoH;
  int round = 0;
  double issued_at_ms = 0;     // simulation time
  bool ok = false;
  double response_ms = 0;      // end-to-end query response time
  double connect_ms = 0;       // connection-establishment share
  // Per-phase decomposition of the response time (QueryTiming; all zero on a
  // reused connection except exchange_ms). Emitted to JSON only when nonzero
  // so the output stays additive relative to older readers.
  double tcp_handshake_ms = 0;
  double tls_handshake_ms = 0;
  double quic_handshake_ms = 0;
  double pool_wait_ms = 0;
  double exchange_ms = 0;      // request -> response on the live connection
  bool connection_reused = false;
  std::string rcode;           // "NOERROR", ... (when ok)
  std::string error_class;     // "connect-timeout", ... (when !ok)
  std::string error_detail;
  // Which phase the failure landed in: "connect", "handshake", "query", or
  // "timeout" (when !ok). Additive JSON field: emitted only when non-empty,
  // and derived from error_class when reading files written before it existed.
  std::string failure_stage;
  int http_status = 0;
  int answer_count = 0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<ResultRecord> from_json(const util::Json& j);
  // Streams the to_json() object (the same bytes) without building it.
  void write_json(util::JsonWriter& w) const;
};

// Maps an error_class string to the query phase it failed in. Returns "" for
// unknown classes so callers can tell "no mapping" from a real stage.
[[nodiscard]] std::string_view derive_failure_stage(std::string_view error_class) noexcept;

// One ICMP probe result.
struct PingRecord {
  std::string vantage;
  std::string resolver;
  int round = 0;
  bool ok = false;
  double rtt_ms = 0;  // valid when ok

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<PingRecord> from_json(const util::Json& j);
  // Streams the to_json() object (the same bytes) without building it.
  void write_json(util::JsonWriter& w) const;
};

}  // namespace ednsm::core
