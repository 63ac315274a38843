#include "core/shard_io.h"

#include "util/bytes.h"
#include "util/fs.h"

namespace ednsm::core {

namespace {
util::Json slice_json(const ShardSlice& slice) {
  util::JsonObject o;
  o["k"] = static_cast<std::uint64_t>(slice.k);
  o["n"] = static_cast<std::uint64_t>(slice.n);
  return util::Json(std::move(o));
}
}  // namespace

util::Json ShardFile::to_json() const {
  util::JsonObject o;
  o["magic"] = std::string(kMagic);
  o["version"] = kVersion;
  o["spec"] = spec.to_json();
  o["spec_fingerprint"] = util::u64_to_hex(spec_fingerprint(spec));
  o["slice"] = slice_json(slice);
  o["total_shards"] = static_cast<std::uint64_t>(total_shards);
  o["has_trace"] = has_trace;
  o["has_metrics"] = has_metrics;
  util::JsonArray outs;
  outs.reserve(outcomes.size());
  for (const ShardOutcome& out : outcomes) {
    util::JsonObject oo;
    oo["index"] = static_cast<std::uint64_t>(out.index);
    oo["vantage"] = out.vantage;
    oo["seed"] = util::u64_to_hex(out.seed);
    util::JsonArray records;
    records.reserve(out.result.records.size());
    for (const ResultRecord& r : out.result.records) records.push_back(r.to_json());
    oo["records"] = util::Json(std::move(records));
    util::JsonArray pings;
    pings.reserve(out.result.pings.size());
    for (const PingRecord& p : out.result.pings) pings.push_back(p.to_json());
    oo["pings"] = util::Json(std::move(pings));
    if (has_trace) oo["trace"] = out.trace.to_json();
    if (has_metrics) oo["metrics"] = out.metrics.to_json();
    outs.emplace_back(std::move(oo));
  }
  o["outcomes"] = util::Json(std::move(outs));
  return util::Json(std::move(o));
}

Result<ShardFile> ShardFile::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("shard file: not a JSON object")};
  if (!j.at("magic").is_string() || j.at("magic").as_string() != kMagic) {
    return Err{std::string("shard file: bad magic (expected \"ednsm-shard\")")};
  }
  if (!j.at("version").is_number() ||
      static_cast<int>(j.at("version").as_number()) != kVersion) {
    return Err{std::string("shard file: unsupported version")};
  }
  ShardFile f;
  auto spec = MeasurementSpec::from_json(j.at("spec"));
  if (!spec) return Err{"shard file: bad spec: " + spec.error()};
  f.spec = std::move(spec).value();

  if (!j.at("spec_fingerprint").is_string()) {
    return Err{std::string("shard file: missing spec_fingerprint")};
  }
  auto fp = util::u64_from_hex(j.at("spec_fingerprint").as_string());
  if (!fp) return Err{"shard file: bad spec_fingerprint: " + fp.error()};
  if (fp.value() != spec_fingerprint(f.spec)) {
    return Err{std::string("shard file: spec_fingerprint does not match embedded spec")};
  }

  const util::Json& slice_j = j.at("slice");
  if (!slice_j.is_object() || !slice_j.at("k").is_number() || !slice_j.at("n").is_number()) {
    return Err{std::string("shard file: slice must be {k, n}")};
  }
  f.slice.k = static_cast<std::size_t>(slice_j.at("k").as_number());
  f.slice.n = static_cast<std::size_t>(slice_j.at("n").as_number());
  if (!j.at("total_shards").is_number()) {
    return Err{std::string("shard file: missing total_shards")};
  }
  f.total_shards = static_cast<std::size_t>(j.at("total_shards").as_number());
  if (!j.at("has_trace").is_bool() || !j.at("has_metrics").is_bool()) {
    return Err{std::string("shard file: missing has_trace/has_metrics")};
  }
  f.has_trace = j.at("has_trace").as_bool();
  f.has_metrics = j.at("has_metrics").as_bool();

  if (!j.at("outcomes").is_array()) return Err{std::string("shard file: missing outcomes")};
  for (const util::Json& oj : j.at("outcomes").as_array()) {
    if (!oj.is_object() || !oj.at("index").is_number() || !oj.at("vantage").is_string() ||
        !oj.at("seed").is_string() || !oj.at("records").is_array() ||
        !oj.at("pings").is_array()) {
      return Err{std::string("shard file: malformed outcome entry")};
    }
    ShardOutcome out;
    out.index = static_cast<std::size_t>(oj.at("index").as_number());
    out.vantage = oj.at("vantage").as_string();
    auto seed = util::u64_from_hex(oj.at("seed").as_string());
    if (!seed) return Err{"shard file: bad outcome seed: " + seed.error()};
    out.seed = seed.value();
    for (const util::Json& rj : oj.at("records").as_array()) {
      auto r = ResultRecord::from_json(rj);
      if (!r) return Err{"shard file: bad record: " + r.error()};
      out.result.records.push_back(std::move(r).value());
    }
    for (const util::Json& pj : oj.at("pings").as_array()) {
      auto p = PingRecord::from_json(pj);
      if (!p) return Err{"shard file: bad ping: " + p.error()};
      out.result.pings.push_back(std::move(p).value());
    }
    if (f.has_trace) {
      auto t = obs::TraceData::from_json(oj.at("trace"));
      if (!t) return Err{"shard file: bad trace: " + t.error()};
      out.trace = std::move(t).value();
    }
    if (f.has_metrics) {
      auto m = obs::Metrics::from_json(oj.at("metrics"));
      if (!m) return Err{"shard file: bad metrics: " + m.error()};
      out.metrics = std::move(m).value();
    }
    f.outcomes.push_back(std::move(out));
  }

  if (auto v = f.validate(); !v) return Err{v.error()};
  return f;
}

Result<void> ShardFile::validate() const {
  if (!slice.valid()) return Err{std::string("shard file: invalid slice (need 0 <= k < n)")};
  const std::vector<ShardPlan> plans = expand_spec(spec);
  if (plans.size() != total_shards) {
    return Err{"shard file: total_shards " + std::to_string(total_shards) +
               " does not match the spec's " + std::to_string(plans.size()) + " shards"};
  }
  const SliceBounds bounds = slice_bounds(plans.size(), slice);
  if (outcomes.size() != bounds.count()) {
    return Err{"shard file: slice " + std::to_string(slice.k) + "/" + std::to_string(slice.n) +
               " expects " + std::to_string(bounds.count()) + " outcomes, found " +
               std::to_string(outcomes.size())};
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ShardOutcome& out = outcomes[i];
    const std::size_t expected_index = bounds.begin + i;
    if (out.index != expected_index) {
      return Err{"shard file: outcome " + std::to_string(i) + " has index " +
                 std::to_string(out.index) + ", expected " + std::to_string(expected_index)};
    }
    const ShardPlan& plan = plans[out.index];
    if (out.vantage != plan.vantage) {
      return Err{"shard file: outcome " + std::to_string(out.index) + " vantage \"" +
                 out.vantage + "\" does not match spec vantage \"" + plan.vantage + "\""};
    }
    if (out.seed != plan.seed) {
      return Err{"shard file: outcome " + std::to_string(out.index) +
                 " seed does not match the spec-derived shard seed"};
    }
  }
  return {};
}

// Streams the to_json() layout into the file in chunks; each outcome's
// records and pings stream themselves (ResultRecord::write_json), so no
// record exists as a Json tree.
Result<void> ShardFile::write(const std::string& path) const {
  util::AtomicFileWriter file(path);
  util::JsonWriter w([&file](std::string_view bytes) { file.append(bytes); }, 2);
  w.begin_object();
  w.key("has_metrics");
  w.boolean(has_metrics);
  w.key("has_trace");
  w.boolean(has_trace);
  w.key("magic");
  w.string(kMagic);
  w.key("outcomes");
  w.begin_array();
  for (const ShardOutcome& out : outcomes) {
    w.begin_object();
    w.key("index");
    w.number(static_cast<double>(out.index));
    if (has_metrics) {
      w.key("metrics");
      w.value(out.metrics.to_json());
    }
    w.key("pings");
    w.array_of(out.result.pings);
    w.key("records");
    w.array_of(out.result.records);
    w.key("seed");
    w.string(util::u64_to_hex(out.seed));
    if (has_trace) {
      w.key("trace");
      out.trace.write_json(w);
    }
    w.key("vantage");
    w.string(out.vantage);
    w.end_object();
  }
  w.end_array();
  w.key("slice");
  w.value(slice_json(slice));
  w.key("spec");
  w.value(spec.to_json());
  w.key("spec_fingerprint");
  w.string(util::u64_to_hex(spec_fingerprint(spec)));
  w.key("total_shards");
  w.number(static_cast<double>(total_shards));
  w.key("version");
  w.number(kVersion);
  w.end_object();
  w.finish();
  file.append("\n");
  return file.commit();
}

Result<ShardFile> ShardFile::load(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{"shard file: " + text.error()};
  auto j = util::Json::parse(text.value());
  if (!j) return Err{"shard file " + path + ": " + j.error()};
  auto f = from_json(j.value());
  if (!f) return Err{path + ": " + f.error()};
  return f;
}

}  // namespace ednsm::core
