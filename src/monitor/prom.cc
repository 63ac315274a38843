#include "monitor/prom.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

namespace ednsm::monitor {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return std::string(buf);
}

std::string sanitize(std::string_view name) {
  std::string out = "ednsm_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string label_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string labels_of(const obs::SeriesPoint& p, std::string_view extra = {}) {
  std::string out = "{vantage=\"" + label_escape(p.vantage) + "\",resolver=\"" +
                    label_escape(p.resolver) + "\",protocol=\"" + label_escape(p.protocol) + "\"";
  if (!extra.empty()) {
    out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

// Collapsed-across-buckets accumulator for one (metric, labels) series.
struct Collapsed {
  double counter = 0.0;
  stats::Welford welford;
  stats::Histogram histogram{obs::TimeSeries::kHistBinWidthMs, obs::TimeSeries::kHistBins};
};

}  // namespace

std::string to_prometheus(const obs::TimeSeries& series) {
  // snapshot() is sorted by (metric, vantage, resolver, protocol, kind,
  // bucket); a sorted map keyed the same way keeps emission deterministic.
  using SeriesKey = std::tuple<std::string, std::string, std::string, std::string, std::string>;
  std::map<SeriesKey, Collapsed> collapsed;
  std::map<SeriesKey, obs::SeriesPoint> label_points;  // representative labels

  for (const obs::SeriesPoint& p : series.snapshot()) {
    SeriesKey key{p.metric, p.kind, p.vantage, p.resolver, p.protocol};
    Collapsed& c = collapsed[key];
    if (p.kind == "counter") {
      c.counter += p.value;
    } else {
      c.welford.merge(stats::Welford::from_moments(p.count, p.mean, p.m2, p.min, p.max));
      for (const auto& [bin, n] : p.bins) (void)c.histogram.add_count(bin, n);
    }
    label_points.emplace(key, p);
  }

  std::ostringstream os;
  std::string last_header;  // one # TYPE block per (metric, kind)
  for (const auto& [key, c] : collapsed) {
    const auto& [metric, kind, vantage, resolver, protocol] = key;
    const obs::SeriesPoint& p = label_points.at(key);
    const std::string name = sanitize(metric);
    if (kind == "counter") {
      const std::string full = name + "_total";
      if (last_header != full) {
        os << "# TYPE " << full << " counter\n";
        last_header = full;
      }
      os << full << labels_of(p) << ' ' << fmt_double(c.counter) << '\n';
    } else {
      if (last_header != name) {
        os << "# TYPE " << name << " summary\n";
        last_header = name;
      }
      for (const double q : {0.5, 0.95, 0.99}) {
        const double value = c.welford.count() > 0 ? c.histogram.approx_quantile(q) : 0.0;
        os << name << labels_of(p, "quantile=\"" + fmt_double(q) + "\"") << ' '
           << fmt_double(value) << '\n';
      }
      os << name << "_sum" << labels_of(p) << ' '
         << fmt_double(c.welford.mean() * static_cast<double>(c.welford.count())) << '\n';
      os << name << "_count" << labels_of(p) << ' ' << c.welford.count() << '\n';
    }
  }
  return std::move(os).str();
}

std::uint64_t fleet_latest_update_ms(const std::vector<obs::RuntimeHeartbeat>& fleet) noexcept {
  std::uint64_t latest = 0;
  for (const obs::RuntimeHeartbeat& h : fleet) latest = std::max(latest, h.updated_unix_ms);
  return latest;
}

bool heartbeat_is_stale(const obs::RuntimeHeartbeat& h, std::uint64_t fleet_latest_ms,
                        std::uint64_t stale_after_ms) noexcept {
  if (h.status == "done" || h.status == "failed") return false;
  return fleet_latest_ms > h.updated_unix_ms &&
         fleet_latest_ms - h.updated_unix_ms > stale_after_ms;
}

std::string to_prometheus(const std::vector<obs::RuntimeHeartbeat>& fleet,
                          std::uint64_t stale_after_ms) {
  // Shards emit in (k, n) order so output is deterministic regardless of the
  // order heartbeat files were read.
  std::vector<const obs::RuntimeHeartbeat*> ordered;
  ordered.reserve(fleet.size());
  for (const obs::RuntimeHeartbeat& h : fleet) ordered.push_back(&h);
  std::sort(ordered.begin(), ordered.end(),
            [](const obs::RuntimeHeartbeat* a, const obs::RuntimeHeartbeat* b) {
              return std::tie(a->shard_n, a->shard_k) < std::tie(b->shard_n, b->shard_k);
            });

  auto shard_label = [](const obs::RuntimeHeartbeat& h) {
    return "{shard=\"" + std::to_string(h.shard_k) + "/" + std::to_string(h.shard_n) + "\"}";
  };

  std::ostringstream os;
  struct GaugeRow {
    const char* name;
    double (*value)(const obs::RuntimeHeartbeat&);
  };
  const GaugeRow gauges[] = {
      {"runtime_completion", [](const obs::RuntimeHeartbeat& h) { return h.completion; }},
      {"runtime_plans_total",
       [](const obs::RuntimeHeartbeat& h) { return static_cast<double>(h.plans_total); }},
      {"runtime_plans_done",
       [](const obs::RuntimeHeartbeat& h) { return static_cast<double>(h.plans_done); }},
      {"runtime_plans_per_sec", [](const obs::RuntimeHeartbeat& h) { return h.plans_per_sec; }},
      {"runtime_eta_ms", [](const obs::RuntimeHeartbeat& h) { return h.eta_ms; }},
      {"runtime_elapsed_ms", [](const obs::RuntimeHeartbeat& h) { return h.elapsed_ms; }},
      {"runtime_collector_lag",
       [](const obs::RuntimeHeartbeat& h) { return static_cast<double>(h.collector_lag); }},
      {"runtime_records",
       [](const obs::RuntimeHeartbeat& h) { return static_cast<double>(h.records); }},
      {"runtime_bytes_encoded",
       [](const obs::RuntimeHeartbeat& h) { return static_cast<double>(h.bytes_encoded); }},
  };
  for (const GaugeRow& g : gauges) {
    const std::string name = sanitize(g.name);
    os << "# TYPE " << name << " gauge\n";
    for (const obs::RuntimeHeartbeat* h : ordered) {
      os << name << shard_label(*h) << ' ' << fmt_double(g.value(*h)) << '\n';
    }
  }

  if (stale_after_ms > 0) {
    const std::uint64_t latest = fleet_latest_update_ms(fleet);
    const std::string name = sanitize("runtime_stale");
    os << "# TYPE " << name << " gauge\n";
    for (const obs::RuntimeHeartbeat* h : ordered) {
      os << name << shard_label(*h) << ' '
         << (heartbeat_is_stale(*h, latest, stale_after_ms) ? 1 : 0) << '\n';
    }
  }

  const std::pair<const char*, std::uint64_t obs::RuntimeStageSnapshot::*> stage_fields[] = {
      {"runtime_stage_items_in", &obs::RuntimeStageSnapshot::items_in},
      {"runtime_stage_items_out", &obs::RuntimeStageSnapshot::items_out},
      {"runtime_stage_stall_spins", &obs::RuntimeStageSnapshot::stall_spins},
      {"runtime_stage_stall_ns", &obs::RuntimeStageSnapshot::stall_ns},
      {"runtime_stage_busy_ns", &obs::RuntimeStageSnapshot::busy_ns},
      {"runtime_stage_max_queue_depth", &obs::RuntimeStageSnapshot::max_queue_depth},
  };
  for (const auto& [raw_name, field] : stage_fields) {
    const std::string name = sanitize(raw_name);
    os << "# TYPE " << name << " gauge\n";
    for (const obs::RuntimeHeartbeat* h : ordered) {
      for (const obs::RuntimeStageSnapshot& s : h->stages) {
        os << name << "{shard=\"" << h->shard_k << "/" << h->shard_n << "\",stage=\""
           << label_escape(s.stage) << "\"} " << fmt_double(static_cast<double>(s.*field))
           << '\n';
      }
    }
  }
  return std::move(os).str();
}

}  // namespace ednsm::monitor
