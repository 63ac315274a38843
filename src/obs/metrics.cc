#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace ednsm::obs {

namespace {

// Deterministic double formatting for the JSONL dump: %.12g is stable across
// runs (the values themselves are deterministic) and round enough to read.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return std::string(buf);
}

void write_name(std::ostream& os, std::string_view name) {
  os << '"' << util::json_escape(name) << '"';
}

}  // namespace

Metrics::Key Metrics::counter_key(std::string_view name) {
  const Key k = counter_names_.intern(name);
  if (k >= counters_.size()) counters_.resize(k + 1, 0);
  return k;
}

std::uint64_t Metrics::counter(std::string_view name) const {
  const auto k = counter_names_.find(name);
  return k.has_value() && *k < counters_.size() ? counters_[*k] : 0;
}

Metrics::Key Metrics::distribution_key(std::string_view name) {
  const Key k = dist_names_.intern(name);
  if (k >= dists_.size()) dists_.resize(k + 1);
  return k;
}

void Metrics::observe(Key distribution, double value) {
  Distribution& d = dists_[distribution];
  d.welford.add(value);
  d.histogram.add(value);
}

const stats::Welford* Metrics::distribution(std::string_view name) const {
  const auto k = dist_names_.find(name);
  return k.has_value() && *k < dists_.size() ? &dists_[*k].welford : nullptr;
}

void Metrics::merge(const Metrics& other) {
  for (Key k = 0; k < other.counters_.size(); ++k) {
    if (other.counters_[k] != 0) add(other.counter_names_.name(k), other.counters_[k]);
  }
  for (Key k = 0; k < other.dists_.size(); ++k) {
    const Key mine = distribution_key(other.dist_names_.name(k));
    dists_[mine].welford.merge(other.dists_[k].welford);
    dists_[mine].histogram.merge(other.dists_[k].histogram);
  }
}

void Metrics::write_jsonl(std::ostream& os) const {
  struct Line {
    std::string_view name;
    int kind;  // 0 counter, 1 distribution — tiebreak for sorting
    Key key;
  };
  std::vector<Line> lines;
  lines.reserve(counters_.size() + dists_.size());
  for (Key k = 0; k < counters_.size(); ++k) lines.push_back({counter_names_.name(k), 0, k});
  for (Key k = 0; k < dists_.size(); ++k) lines.push_back({dist_names_.name(k), 1, k});
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.name != b.name ? a.name < b.name : a.kind < b.kind;
  });

  for (const Line& line : lines) {
    if (line.kind == 0) {
      os << "{\"kind\":\"counter\",\"name\":";
      write_name(os, line.name);
      os << ",\"value\":" << counters_[line.key] << "}\n";
      continue;
    }
    const Distribution& d = dists_[line.key];
    os << "{\"kind\":\"distribution\",\"name\":";
    write_name(os, line.name);
    os << ",\"count\":" << d.welford.count();
    if (d.welford.count() > 0) {
      os << ",\"mean\":" << fmt_double(d.welford.mean())
         << ",\"stddev\":" << fmt_double(d.welford.stddev())
         << ",\"min\":" << fmt_double(d.welford.min())
         << ",\"max\":" << fmt_double(d.welford.max())
         << ",\"p50\":" << fmt_double(d.histogram.approx_quantile(0.50))
         << ",\"p90\":" << fmt_double(d.histogram.approx_quantile(0.90))
         << ",\"p99\":" << fmt_double(d.histogram.approx_quantile(0.99));
    }
    os << "}\n";
  }
}

std::string Metrics::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return std::move(os).str();
}

util::Json Metrics::to_json() const {
  util::JsonObject o;
  util::JsonArray counters;
  counters.reserve(counters_.size());
  for (Key k = 0; k < counters_.size(); ++k) {
    util::JsonArray entry;
    entry.emplace_back(counter_names_.name(k));
    entry.emplace_back(counters_[k]);
    counters.emplace_back(std::move(entry));
  }
  o["counters"] = util::Json(std::move(counters));
  o["gauges"] = util::Json(util::JsonArray{});
  util::JsonArray dists;
  dists.reserve(dists_.size());
  for (Key k = 0; k < dists_.size(); ++k) {
    const Distribution& d = dists_[k];
    util::JsonObject entry;
    entry["name"] = dist_names_.name(k);
    entry["count"] = d.welford.count();
    entry["mean"] = d.welford.mean();
    entry["m2"] = d.welford.m2();
    entry["min"] = d.welford.min();
    entry["max"] = d.welford.max();
    // Sparse bins: [bin_index, count] pairs for nonzero bins only (the last
    // bin is the overflow bin, matching Histogram::add_count).
    util::JsonArray bins;
    const std::vector<std::uint64_t>& counts = d.histogram.bins();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;
      util::JsonArray pair;
      pair.emplace_back(static_cast<std::uint64_t>(b));
      pair.emplace_back(counts[b]);
      bins.emplace_back(std::move(pair));
    }
    entry["bins"] = util::Json(std::move(bins));
    dists.emplace_back(std::move(entry));
  }
  o["dists"] = util::Json(std::move(dists));
  return util::Json(std::move(o));
}

Result<Metrics> Metrics::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("metrics: not an object")};
  if (!j.at("counters").is_array() || !j.at("gauges").is_array() || !j.at("dists").is_array()) {
    return Err{std::string("metrics: missing counters/gauges/dists arrays")};
  }
  Metrics m;
  for (const util::Json& e : j.at("counters").as_array()) {
    if (!e.is_array() || e.as_array().size() != 2 || !e.as_array()[0].is_string() ||
        !e.as_array()[1].is_number()) {
      return Err{std::string("metrics: counter entries must be [name, value]")};
    }
    m.add(e.as_array()[0].as_string(),
          static_cast<std::uint64_t>(e.as_array()[1].as_number()));
  }
  if (!j.at("gauges").as_array().empty()) {
    return Err{std::string("metrics: \"gauges\" must be empty (the gauge kind was removed)")};
  }
  for (const util::Json& e : j.at("dists").as_array()) {
    if (!e.is_object() || !e.at("name").is_string() || !e.at("count").is_number()) {
      return Err{std::string("metrics: distribution entries need name and count")};
    }
    const Key k = m.distribution_key(e.at("name").as_string());
    Distribution& d = m.dists_[k];
    d.welford = stats::Welford::from_moments(
        static_cast<std::uint64_t>(e.at("count").as_number()),
        e.at("mean").is_number() ? e.at("mean").as_number() : 0.0,
        e.at("m2").is_number() ? e.at("m2").as_number() : 0.0,
        e.at("min").is_number() ? e.at("min").as_number() : 0.0,
        e.at("max").is_number() ? e.at("max").as_number() : 0.0);
    if (!e.at("bins").is_array()) return Err{std::string("metrics: distribution missing bins")};
    for (const util::Json& pair : e.at("bins").as_array()) {
      if (!pair.is_array() || pair.as_array().size() != 2 || !pair.as_array()[0].is_number() ||
          !pair.as_array()[1].is_number()) {
        return Err{std::string("metrics: histogram bins must be [index, count]")};
      }
      if (!d.histogram.add_count(static_cast<std::size_t>(pair.as_array()[0].as_number()),
                                 static_cast<std::uint64_t>(pair.as_array()[1].as_number()))) {
        return Err{std::string("metrics: histogram bin index out of range")};
      }
    }
  }
  return m;
}

}  // namespace ednsm::obs
