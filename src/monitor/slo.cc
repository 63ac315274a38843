#include "monitor/slo.h"

#include <algorithm>
#include <cmath>

namespace ednsm::monitor {

namespace {

constexpr std::string_view kHealthy = "healthy";
constexpr std::string_view kDegraded = "degraded";
constexpr std::string_view kOutage = "outage";

// Window quantiles come back NaN when no successful query landed in the
// window; report 0 so the JSON stays finite (the availability signal already
// covers the all-failures case).
double finite_or_zero(double v) noexcept { return std::isnan(v) ? 0.0 : v; }

}  // namespace

util::Json SloThresholds::to_json() const {
  util::JsonObject o;
  o["min_availability"] = min_availability;
  o["max_p50_ms"] = max_p50_ms;
  o["max_p95_ms"] = max_p95_ms;
  o["max_p99_ms"] = max_p99_ms;
  return util::Json(std::move(o));
}

Result<SloThresholds> SloThresholds::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("slo thresholds: not an object")};
  SloThresholds t;
  if (j.at("min_availability").is_number()) t.min_availability = j.at("min_availability").as_number();
  if (j.at("max_p50_ms").is_number()) t.max_p50_ms = j.at("max_p50_ms").as_number();
  if (j.at("max_p95_ms").is_number()) t.max_p95_ms = j.at("max_p95_ms").as_number();
  if (j.at("max_p99_ms").is_number()) t.max_p99_ms = j.at("max_p99_ms").as_number();
  return t;
}

const SloThresholds& SloConfig::for_tier(resolver::OperatorTier tier) const noexcept {
  switch (tier) {
    case resolver::OperatorTier::Hyperscale:
      return hyperscale;
    case resolver::OperatorTier::Managed:
      return managed;
    case resolver::OperatorTier::Hobbyist:
      return hobbyist;
  }
  return hobbyist;
}

const SloThresholds& SloConfig::for_resolver(std::string_view hostname) const noexcept {
  const resolver::ResolverSpec* spec = resolver::find_resolver(hostname);
  return for_tier(spec != nullptr ? spec->tier : resolver::OperatorTier::Hobbyist);
}

Result<void> SloConfig::validate() const {
  if (window_epochs < 1) return Err{std::string("slo: window_epochs must be >= 1")};
  if (outage_availability < 0.0 || outage_availability > 1.0) {
    return Err{std::string("slo: outage_availability must be in [0, 1]")};
  }
  if (flap_transitions < 2) return Err{std::string("slo: flap_transitions must be >= 2")};
  return {};
}

util::Json SloConfig::to_json() const {
  util::JsonObject o;
  o["window_epochs"] = window_epochs;
  o["outage_availability"] = outage_availability;
  o["flap_transitions"] = flap_transitions;
  o["hyperscale"] = hyperscale.to_json();
  o["managed"] = managed.to_json();
  o["hobbyist"] = hobbyist.to_json();
  return util::Json(std::move(o));
}

Result<SloConfig> SloConfig::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("slo config: not an object")};
  SloConfig c;
  if (j.at("window_epochs").is_number()) {
    c.window_epochs = static_cast<int>(j.at("window_epochs").as_number());
  }
  if (j.at("outage_availability").is_number()) {
    c.outage_availability = j.at("outage_availability").as_number();
  }
  if (j.at("flap_transitions").is_number()) {
    c.flap_transitions = static_cast<int>(j.at("flap_transitions").as_number());
  }
  if (!j.at("hyperscale").is_null()) {
    auto t = SloThresholds::from_json(j.at("hyperscale"));
    if (!t) return Err{t.error()};
    c.hyperscale = t.value();
  }
  if (!j.at("managed").is_null()) {
    auto t = SloThresholds::from_json(j.at("managed"));
    if (!t) return Err{t.error()};
    c.managed = t.value();
  }
  if (!j.at("hobbyist").is_null()) {
    auto t = SloThresholds::from_json(j.at("hobbyist"));
    if (!t) return Err{t.error()};
    c.hobbyist = t.value();
  }
  if (auto v = c.validate(); !v) return Err{v.error()};
  return c;
}

util::Json SloSample::to_json() const {
  util::JsonObject o;
  o["vantage"] = vantage;
  o["resolver"] = resolver;
  o["protocol"] = protocol;
  o["epoch"] = epoch;
  o["queries"] = queries;
  o["failures"] = failures;
  o["availability"] = availability;
  o["window_queries"] = window_queries;
  o["window_failures"] = window_failures;
  o["window_availability"] = window_availability;
  o["p50_ms"] = p50_ms;
  o["p95_ms"] = p95_ms;
  o["p99_ms"] = p99_ms;
  o["state"] = state;
  return util::Json(std::move(o));
}

Result<SloSample> SloSample::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("slo sample: not an object")};
  SloSample s;
  if (!j.at("vantage").is_string() || !j.at("resolver").is_string() ||
      !j.at("protocol").is_string() || !j.at("epoch").is_number() || !j.at("state").is_string()) {
    return Err{std::string("slo sample: missing required fields")};
  }
  s.vantage = j.at("vantage").as_string();
  s.resolver = j.at("resolver").as_string();
  s.protocol = j.at("protocol").as_string();
  s.epoch = static_cast<int>(j.at("epoch").as_number());
  s.state = j.at("state").as_string();
  if (j.at("queries").is_number()) s.queries = static_cast<std::uint64_t>(j.at("queries").as_number());
  if (j.at("failures").is_number()) {
    s.failures = static_cast<std::uint64_t>(j.at("failures").as_number());
  }
  if (j.at("availability").is_number()) s.availability = j.at("availability").as_number();
  if (j.at("window_queries").is_number()) {
    s.window_queries = static_cast<std::uint64_t>(j.at("window_queries").as_number());
  }
  if (j.at("window_failures").is_number()) {
    s.window_failures = static_cast<std::uint64_t>(j.at("window_failures").as_number());
  }
  if (j.at("window_availability").is_number()) {
    s.window_availability = j.at("window_availability").as_number();
  }
  if (j.at("p50_ms").is_number()) s.p50_ms = j.at("p50_ms").as_number();
  if (j.at("p95_ms").is_number()) s.p95_ms = j.at("p95_ms").as_number();
  if (j.at("p99_ms").is_number()) s.p99_ms = j.at("p99_ms").as_number();
  return s;
}

std::vector<SloSample> evaluate_slos(const obs::TimeSeries& series, const SloConfig& config,
                                     const std::vector<std::string>& vantage_ids,
                                     const std::vector<std::string>& resolvers,
                                     std::string_view protocol, int epochs) {
  std::vector<SloSample> out;
  out.reserve(vantage_ids.size() * resolvers.size() * static_cast<std::size_t>(epochs));
  for (const std::string& vantage : vantage_ids) {
    for (const std::string& resolver_host : resolvers) {
      const SloThresholds& limits = config.for_resolver(resolver_host);
      for (int e = 0; e < epochs; ++e) {
        SloSample s;
        s.vantage = vantage;
        s.resolver = resolver_host;
        s.protocol = std::string(protocol);
        s.epoch = e;
        s.queries = series.counter_at(kMetricQueries, vantage, resolver_host, protocol, e);
        s.failures = series.counter_at(kMetricFailures, vantage, resolver_host, protocol, e);
        s.availability =
            s.queries > 0
                ? 1.0 - static_cast<double>(s.failures) / static_cast<double>(s.queries)
                : 1.0;

        const int from = std::max(0, e - config.window_epochs + 1);
        for (int w = from; w <= e; ++w) {
          s.window_queries += series.counter_at(kMetricQueries, vantage, resolver_host, protocol, w);
          s.window_failures +=
              series.counter_at(kMetricFailures, vantage, resolver_host, protocol, w);
        }
        s.window_availability =
            s.window_queries > 0 ? 1.0 - static_cast<double>(s.window_failures) /
                                             static_cast<double>(s.window_queries)
                                 : 1.0;
        s.p50_ms = finite_or_zero(
            series.window_quantile(kMetricResponseMs, vantage, resolver_host, protocol, from, e, 0.50));
        s.p95_ms = finite_or_zero(
            series.window_quantile(kMetricResponseMs, vantage, resolver_host, protocol, from, e, 0.95));
        s.p99_ms = finite_or_zero(
            series.window_quantile(kMetricResponseMs, vantage, resolver_host, protocol, from, e, 0.99));

        if (s.queries > 0 && s.availability < config.outage_availability) {
          s.state = std::string(kOutage);
        } else if (s.window_queries > 0 &&
                   (s.window_availability < limits.min_availability ||
                    s.p50_ms > limits.max_p50_ms || s.p95_ms > limits.max_p95_ms ||
                    s.p99_ms > limits.max_p99_ms)) {
          s.state = std::string(kDegraded);
        } else {
          s.state = std::string(kHealthy);
        }
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

}  // namespace ednsm::monitor
