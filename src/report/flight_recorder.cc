#include "report/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <tuple>

#include "client/query.h"

namespace ednsm::report {

namespace {

std::string ms(double value) { return fmt(value, 1) + " ms"; }

void tree_line(std::ostream& os, const char* branch, const char* label, double value_ms) {
  if (value_ms == 0) return;  // phase absent (reused connection, UDP, ...)
  char buf[96];
  std::snprintf(buf, sizeof(buf), "    %s %-16s %9.1f ms\n", branch, label, value_ms);
  os << buf;
}

void render_record_tree(std::ostream& os, const core::ResultRecord& r, std::size_t rank) {
  std::ostringstream head;
  head << "#" << rank << "  " << ms(r.response_ms) << "  "
       << client::to_string(r.protocol) << "  " << r.vantage << " -> " << r.resolver << "  "
       << r.domain << "  round " << r.round;
  if (r.ok) {
    head << "  [ok " << r.rcode << "]";
  } else {
    head << "  [" << (r.failure_stage.empty() ? "failed" : r.failure_stage) << ": "
         << r.error_class << "]";
  }
  if (r.connection_reused) head << "  (reused)";
  os << head.str() << '\n';

  // The span tree mirrors the QueryTiming decomposition: connect wraps the
  // handshake phases, exchange is the live-connection round trip.
  const bool has_setup = r.connect_ms != 0 || r.tcp_handshake_ms != 0 ||
                         r.tls_handshake_ms != 0 || r.quic_handshake_ms != 0 ||
                         r.pool_wait_ms != 0;
  if (has_setup) {
    tree_line(os, "├─", "connect", r.connect_ms);
    tree_line(os, "│  ├─", "tcp-handshake", r.tcp_handshake_ms);
    tree_line(os, "│  ├─", "tls-handshake", r.tls_handshake_ms);
    tree_line(os, "│  ├─", "quic-handshake", r.quic_handshake_ms);
    tree_line(os, "│  └─", "pool-wait", r.pool_wait_ms);
  }
  tree_line(os, "└─", "exchange", r.exchange_ms);
  if (!r.ok && !r.error_detail.empty()) os << "       " << r.error_detail << '\n';
}

}  // namespace

Table failure_breakdown_table(const core::CampaignResult& result) {
  // std::map keys give the lexicographic tie-break for free.
  std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
  std::uint64_t failed = 0;
  for (const core::ResultRecord& r : result.records) {
    if (r.ok) continue;
    ++failed;
    ++counts[{r.failure_stage.empty() ? "unknown" : r.failure_stage, r.error_class}];
  }

  std::vector<std::pair<std::pair<std::string, std::string>, std::uint64_t>> rows(
      counts.begin(), counts.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });

  Table t({"Stage", "Error", "Count", "Share%"});
  for (const auto& [key, count] : rows) {
    const double share = failed == 0 ? 0.0 : 100.0 * static_cast<double>(count) /
                                                 static_cast<double>(failed);
    t.add_row({key.first, key.second, std::to_string(count), fmt(share, 1)});
  }
  return t;
}

std::string render_slowest_queries(const core::CampaignResult& result, std::size_t top_n) {
  std::vector<std::size_t> order(result.records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Equal durations tie-break on (vantage, resolver, round) so the listing is
  // deterministic even for records loaded from files whose order is not the
  // canonical merge order; stable_sort keeps record order for full ties.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const core::ResultRecord& ra = result.records[a];
    const core::ResultRecord& rb = result.records[b];
    if (ra.response_ms != rb.response_ms) return ra.response_ms > rb.response_ms;
    return std::tie(ra.vantage, ra.resolver, ra.round) < std::tie(rb.vantage, rb.resolver, rb.round);
  });
  if (order.size() > top_n) order.resize(top_n);

  std::ostringstream os;
  for (std::size_t i = 0; i < order.size(); ++i) {
    render_record_tree(os, result.records[order[i]], i + 1);
  }
  return os.str();
}

std::string render_flight_recorder(const core::CampaignResult& result, std::size_t top_n) {
  std::uint64_t ok = 0;
  for (const core::ResultRecord& r : result.records) ok += r.ok ? 1 : 0;
  const std::uint64_t failed = result.records.size() - ok;

  std::ostringstream os;
  os << "== Flight recorder ==\n"
     << result.records.size() << " records (" << ok << " ok, " << failed << " failed), "
     << result.pings.size() << " pings\n\n";
  os << "-- Slowest " << top_n << " queries --\n"
     << render_slowest_queries(result, top_n);
  if (failed > 0) {
    os << "\n-- Failure breakdown --\n" << failure_breakdown_table(result).to_text();
  }
  return os.str();
}

}  // namespace ednsm::report
