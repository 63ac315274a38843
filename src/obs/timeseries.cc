#include "obs/timeseries.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <tuple>

namespace ednsm::obs {

namespace {

constexpr char kMagic[4] = {'E', 'D', 'T', 'S'};
constexpr std::string_view kSchema = "ednsm.timeseries.v1";

constexpr std::string_view kKindCounter = "counter";
constexpr std::string_view kKindHistogram = "histogram";

// Binary point tags (persisted; do not renumber). Tag 1 was the removed
// gauge kind and is rejected.
constexpr std::uint8_t kTagCounter = 0;
constexpr std::uint8_t kTagHistogram = 2;

void put_u32(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(util::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i64(util::Bytes& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_f64(util::Bytes& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_str(util::Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Bounds-checked little-endian reader over the binary blob.
class ByteReader {
 public:
  explicit ByteReader(const util::Bytes& data) : data_(data) {}

  [[nodiscard]] bool read_u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool read_i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!read_u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }

  [[nodiscard]] bool read_f64(double& v) {
    std::uint64_t u = 0;
    if (!read_u64(u)) return false;
    v = std::bit_cast<double>(u);
    return true;
  }

  [[nodiscard]] bool read_u8(std::uint8_t& v) {
    if (pos_ >= data_.size()) return false;
    v = data_[pos_++];
    return true;
  }

  [[nodiscard]] bool read_str(std::string& s) {
    std::uint32_t len = 0;
    if (!read_u32(len)) return false;
    if (pos_ + len > data_.size()) return false;
    s.assign(reinterpret_cast<const char*>(data_.data()) + pos_, len);
    pos_ += len;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  const util::Bytes& data_;
  std::size_t pos_ = 0;
};

}  // namespace

// -- SeriesPoint codec --------------------------------------------------------

util::Json SeriesPoint::to_json() const {
  util::JsonObject o;
  o["metric"] = metric;
  o["vantage"] = vantage;
  o["resolver"] = resolver;
  o["protocol"] = protocol;
  o["kind"] = kind;
  o["bucket"] = static_cast<std::int64_t>(bucket);
  o["value"] = value;
  if (kind == kKindHistogram) {
    o["count"] = count;
    o["mean"] = mean;
    o["m2"] = m2;
    o["min"] = min;
    o["max"] = max;
    util::JsonArray arr;
    arr.reserve(bins.size());
    for (const auto& [bin, n] : bins) {
      util::JsonArray pair;
      pair.emplace_back(static_cast<std::uint64_t>(bin));
      pair.emplace_back(n);
      arr.emplace_back(std::move(pair));
    }
    o["bins"] = util::Json(std::move(arr));
  }
  return util::Json(std::move(o));
}

Result<SeriesPoint> SeriesPoint::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("series point: not an object")};
  SeriesPoint p;
  if (!j.at("metric").is_string() || !j.at("vantage").is_string() ||
      !j.at("resolver").is_string() || !j.at("protocol").is_string() ||
      !j.at("kind").is_string() || !j.at("bucket").is_number()) {
    return Err{std::string("series point: missing required fields")};
  }
  p.metric = j.at("metric").as_string();
  p.vantage = j.at("vantage").as_string();
  p.resolver = j.at("resolver").as_string();
  p.protocol = j.at("protocol").as_string();
  p.kind = j.at("kind").as_string();
  p.bucket = static_cast<std::int64_t>(j.at("bucket").as_number());
  if (j.at("value").is_number()) p.value = j.at("value").as_number();
  if (j.at("count").is_number()) p.count = static_cast<std::uint64_t>(j.at("count").as_number());
  if (j.at("mean").is_number()) p.mean = j.at("mean").as_number();
  if (j.at("m2").is_number()) p.m2 = j.at("m2").as_number();
  if (j.at("min").is_number()) p.min = j.at("min").as_number();
  if (j.at("max").is_number()) p.max = j.at("max").as_number();
  if (j.at("bins").is_array()) {
    for (const util::Json& e : j.at("bins").as_array()) {
      if (!e.is_array() || e.as_array().size() != 2 || !e.as_array()[0].is_number() ||
          !e.as_array()[1].is_number()) {
        return Err{std::string("series point: bins entries must be [bin, count] pairs")};
      }
      p.bins.emplace_back(static_cast<std::uint32_t>(e.as_array()[0].as_number()),
                          static_cast<std::uint64_t>(e.as_array()[1].as_number()));
    }
  }
  return p;
}

// -- TimeSeries writes --------------------------------------------------------

TimeSeries::PointKey TimeSeries::intern_key(std::string_view metric, std::string_view vantage,
                                            std::string_view resolver, std::string_view protocol,
                                            std::int64_t bucket) {
  return PointKey{names_.intern(metric), names_.intern(vantage), names_.intern(resolver),
                  names_.intern(protocol), bucket};
}

bool TimeSeries::find_key(std::string_view metric, std::string_view vantage,
                          std::string_view resolver, std::string_view protocol,
                          std::int64_t bucket, PointKey& out) const {
  const auto m = names_.find(metric);
  const auto v = names_.find(vantage);
  const auto r = names_.find(resolver);
  const auto p = names_.find(protocol);
  if (!m || !v || !r || !p) return false;
  out = PointKey{*m, *v, *r, *p, bucket};
  return true;
}

void TimeSeries::add_counter(std::string_view metric, std::string_view vantage,
                             std::string_view resolver, std::string_view protocol, std::int64_t t,
                             std::uint64_t delta) {
  counters_[intern_key(metric, vantage, resolver, protocol, bucket_of(t))] += delta;
}

void TimeSeries::observe(std::string_view metric, std::string_view vantage,
                         std::string_view resolver, std::string_view protocol, std::int64_t t,
                         double value_ms) {
  Dist& d = dists_[intern_key(metric, vantage, resolver, protocol, bucket_of(t))];
  d.welford.add(value_ms);
  d.histogram.add(value_ms);
}

// -- TimeSeries reads ---------------------------------------------------------

std::uint64_t TimeSeries::counter_at(std::string_view metric, std::string_view vantage,
                                     std::string_view resolver, std::string_view protocol,
                                     std::int64_t bucket) const {
  PointKey k{};
  if (!find_key(metric, vantage, resolver, protocol, bucket, k)) return 0;
  const auto it = counters_.find(k);
  return it != counters_.end() ? it->second : 0;
}

const stats::Welford* TimeSeries::dist_at(std::string_view metric, std::string_view vantage,
                                          std::string_view resolver, std::string_view protocol,
                                          std::int64_t bucket) const {
  PointKey k{};
  if (!find_key(metric, vantage, resolver, protocol, bucket, k)) return nullptr;
  const auto it = dists_.find(k);
  return it != dists_.end() ? &it->second.welford : nullptr;
}

double TimeSeries::dist_quantile(std::string_view metric, std::string_view vantage,
                                 std::string_view resolver, std::string_view protocol,
                                 std::int64_t bucket, double q) const {
  PointKey k{};
  if (!find_key(metric, vantage, resolver, protocol, bucket, k)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto it = dists_.find(k);
  if (it == dists_.end()) return std::numeric_limits<double>::quiet_NaN();
  return it->second.histogram.approx_quantile(q);
}

double TimeSeries::window_quantile(std::string_view metric, std::string_view vantage,
                                   std::string_view resolver, std::string_view protocol,
                                   std::int64_t from, std::int64_t to, double q) const {
  PointKey k{};
  if (!find_key(metric, vantage, resolver, protocol, 0, k)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  stats::Histogram merged(kHistBinWidthMs, kHistBins);
  for (std::int64_t b = from; b <= to; ++b) {
    k.bucket = b;
    const auto it = dists_.find(k);
    if (it != dists_.end()) merged.merge(it->second.histogram);
  }
  return merged.approx_quantile(q);  // NaN when no samples in the window
}

// -- snapshot / insert --------------------------------------------------------

std::vector<SeriesPoint> TimeSeries::snapshot() const {
  std::vector<SeriesPoint> out;
  out.reserve(size());
  const auto labels = [&](const PointKey& k, SeriesPoint& p) {
    p.metric = names_.name(k.metric);
    p.vantage = names_.name(k.vantage);
    p.resolver = names_.name(k.resolver);
    p.protocol = names_.name(k.protocol);
    p.bucket = k.bucket;
  };
  for (const auto& [k, v] : counters_) {
    SeriesPoint p;
    labels(k, p);
    p.kind = std::string(kKindCounter);
    p.value = static_cast<double>(v);
    out.push_back(std::move(p));
  }
  for (const auto& [k, d] : dists_) {
    SeriesPoint p;
    labels(k, p);
    p.kind = std::string(kKindHistogram);
    p.count = d.welford.count();
    p.mean = d.welford.mean();
    p.m2 = d.welford.m2();
    p.min = d.welford.min();
    p.max = d.welford.max();
    const auto& bins = d.histogram.bins();
    for (std::size_t i = 0; i < bins.size(); ++i) {
      if (bins[i] != 0) p.bins.emplace_back(static_cast<std::uint32_t>(i), bins[i]);
    }
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const SeriesPoint& a, const SeriesPoint& b) {
    return std::tie(a.metric, a.vantage, a.resolver, a.protocol, a.kind, a.bucket) <
           std::tie(b.metric, b.vantage, b.resolver, b.protocol, b.kind, b.bucket);
  });
  return out;
}

Result<void> TimeSeries::insert(const SeriesPoint& p) {
  const PointKey k = intern_key(p.metric, p.vantage, p.resolver, p.protocol, p.bucket);
  if (p.kind == kKindCounter) {
    counters_[k] += static_cast<std::uint64_t>(p.value);
    return {};
  }
  if (p.kind == kKindHistogram) {
    Dist incoming;
    incoming.welford = stats::Welford::from_moments(p.count, p.mean, p.m2, p.min, p.max);
    for (const auto& [bin, n] : p.bins) {
      if (!incoming.histogram.add_count(bin, n)) {
        return Err{std::string("series point: histogram bin out of range")};
      }
    }
    Dist& mine = dists_[k];
    mine.welford.merge(incoming.welford);
    mine.histogram.merge(incoming.histogram);
    return {};
  }
  return Err{std::string("series point: unknown kind '") + p.kind + "'"};
}

// -- JSONL codec --------------------------------------------------------------

void TimeSeries::write_jsonl(std::ostream& os) const {
  util::JsonObject header;
  header["kind"] = std::string("header");
  header["schema"] = std::string(kSchema);
  header["bucket_width"] = bucket_width_;
  os << util::Json(std::move(header)).dump() << '\n';
  for (const SeriesPoint& p : snapshot()) os << p.to_json().dump() << '\n';
}

std::string TimeSeries::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return std::move(os).str();
}

// -- binary codec -------------------------------------------------------------

util::Bytes TimeSeries::to_binary() const {
  const std::vector<SeriesPoint> points = snapshot();

  // Canonical string table: label strings interned in snapshot order, so the
  // blob is independent of this store's live intern order.
  util::InternTable table;
  for (const SeriesPoint& p : points) {
    table.intern(p.metric);
    table.intern(p.vantage);
    table.intern(p.resolver);
    table.intern(p.protocol);
  }

  util::Bytes out;
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put_u32(out, kBinaryVersion);
  put_i64(out, bucket_width_);
  put_u32(out, static_cast<std::uint32_t>(table.size()));
  for (Symbol s = 0; s < table.size(); ++s) put_str(out, table.name(s));
  put_u64(out, points.size());
  for (const SeriesPoint& p : points) {
    put_u32(out, *table.find(p.metric));
    put_u32(out, *table.find(p.vantage));
    put_u32(out, *table.find(p.resolver));
    put_u32(out, *table.find(p.protocol));
    put_i64(out, p.bucket);
    if (p.kind == kKindCounter) {
      out.push_back(kTagCounter);
      put_u64(out, static_cast<std::uint64_t>(p.value));
    } else {
      out.push_back(kTagHistogram);
      put_u64(out, p.count);
      put_f64(out, p.mean);
      put_f64(out, p.m2);
      put_f64(out, p.min);
      put_f64(out, p.max);
      put_u32(out, static_cast<std::uint32_t>(p.bins.size()));
      for (const auto& [bin, n] : p.bins) {
        put_u32(out, bin);
        put_u64(out, n);
      }
    }
  }
  return out;
}

Result<TimeSeries> TimeSeries::from_binary(const util::Bytes& bytes) {
  ByteReader r(bytes);
  const auto fail = [](const char* what) {
    return Err{std::string("timeseries binary: ") + what};
  };

  std::uint8_t magic[4] = {};
  for (std::uint8_t& b : magic) {
    if (!r.read_u8(b)) return fail("truncated magic");
  }
  if (!std::equal(std::begin(magic), std::end(magic), std::begin(kMagic))) {
    return fail("bad magic");
  }
  std::uint32_t version = 0;
  if (!r.read_u32(version)) return fail("truncated version");
  if (version != kBinaryVersion) return fail("unsupported version");

  std::int64_t bucket_width = 0;
  if (!r.read_i64(bucket_width)) return fail("truncated bucket width");
  if (bucket_width <= 0) return fail("bucket width must be > 0");
  TimeSeries ts(bucket_width);

  std::uint32_t n_names = 0;
  if (!r.read_u32(n_names)) return fail("truncated string table size");
  std::vector<std::string> table;
  table.reserve(n_names);
  for (std::uint32_t i = 0; i < n_names; ++i) {
    std::string s;
    if (!r.read_str(s)) return fail("truncated string table");
    table.push_back(std::move(s));
  }

  std::uint64_t n_points = 0;
  if (!r.read_u64(n_points)) return fail("truncated point count");
  for (std::uint64_t i = 0; i < n_points; ++i) {
    std::uint32_t sym[4] = {};
    for (std::uint32_t& s : sym) {
      if (!r.read_u32(s)) return fail("truncated point labels");
      if (s >= table.size()) return fail("label symbol out of range");
    }
    SeriesPoint p;
    p.metric = table[sym[0]];
    p.vantage = table[sym[1]];
    p.resolver = table[sym[2]];
    p.protocol = table[sym[3]];
    if (!r.read_i64(p.bucket)) return fail("truncated point bucket");
    std::uint8_t tag = 0;
    if (!r.read_u8(tag)) return fail("truncated point tag");
    if (tag == kTagCounter) {
      p.kind = std::string(kKindCounter);
      std::uint64_t v = 0;
      if (!r.read_u64(v)) return fail("truncated counter value");
      p.value = static_cast<double>(v);
    } else if (tag == kTagHistogram) {
      p.kind = std::string(kKindHistogram);
      if (!r.read_u64(p.count) || !r.read_f64(p.mean) || !r.read_f64(p.m2) ||
          !r.read_f64(p.min) || !r.read_f64(p.max)) {
        return fail("truncated histogram moments");
      }
      std::uint32_t n_bins = 0;
      if (!r.read_u32(n_bins)) return fail("truncated histogram bin count");
      p.bins.reserve(n_bins);
      for (std::uint32_t b = 0; b < n_bins; ++b) {
        std::uint32_t bin = 0;
        std::uint64_t cnt = 0;
        if (!r.read_u32(bin) || !r.read_u64(cnt)) return fail("truncated histogram bins");
        p.bins.emplace_back(bin, cnt);
      }
    } else {
      return fail("unknown point tag");
    }
    if (auto ins = ts.insert(p); !ins) return Err{ins.error()};
  }
  if (!r.done()) return fail("trailing bytes");
  return ts;
}

}  // namespace ednsm::obs
