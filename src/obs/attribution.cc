#include "obs/attribution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "stats/quantile.h"

namespace ednsm::obs {

namespace {

bool in_window(const QueryEvidence& row, int from_epoch, int to_epoch) {
  return row.epoch >= from_epoch && row.epoch <= to_epoch;
}

}  // namespace

util::Json QueryEvidence::to_json() const {
  util::JsonObject o;
  o["vantage"] = vantage;
  o["resolver"] = resolver;
  o["domain"] = domain;
  o["epoch"] = epoch;
  o["round"] = round;
  o["ok"] = ok;
  o["reused"] = reused;
  o["response_ms"] = response_ms;
  o["tcp_ms"] = tcp_ms;
  o["tls_ms"] = tls_ms;
  o["quic_ms"] = quic_ms;
  o["wait_ms"] = wait_ms;
  o["exchange_ms"] = exchange_ms;
  o["failure_stage"] = failure_stage;
  o["error_class"] = error_class;
  return util::Json(std::move(o));
}

Result<QueryEvidence> QueryEvidence::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("evidence row: not an object")};
  QueryEvidence e;
  const char* bad = nullptr;  // first missing or wrong-typed field
  const auto text = [&](const char* key, std::string& out) {
    const util::Json& v = j.at(key);
    if (v.is_string()) {
      out = v.as_string();
    } else if (bad == nullptr) {
      bad = key;
    }
  };
  const auto number = [&](const char* key, double& out) {
    const util::Json& v = j.at(key);
    if (v.is_number()) {
      out = v.as_number();
    } else if (bad == nullptr) {
      bad = key;
    }
  };
  const auto integer = [&](const char* key, int& out) {
    double v = 0.0;
    number(key, v);
    if (v == std::floor(v) && v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max()) {
      out = static_cast<int>(v);
    } else if (bad == nullptr) {
      bad = key;
    }
  };
  const auto flag = [&](const char* key, bool& out) {
    const util::Json& v = j.at(key);
    if (v.is_bool()) {
      out = v.as_bool();
    } else if (bad == nullptr) {
      bad = key;
    }
  };
  text("vantage", e.vantage);
  text("resolver", e.resolver);
  text("domain", e.domain);
  integer("epoch", e.epoch);
  integer("round", e.round);
  flag("ok", e.ok);
  flag("reused", e.reused);
  number("response_ms", e.response_ms);
  number("tcp_ms", e.tcp_ms);
  number("tls_ms", e.tls_ms);
  number("quic_ms", e.quic_ms);
  number("wait_ms", e.wait_ms);
  number("exchange_ms", e.exchange_ms);
  text("failure_stage", e.failure_stage);
  text("error_class", e.error_class);
  if (bad != nullptr) {
    return Err{std::string("evidence row: field ") + bad + " is missing or has the wrong type"};
  }
  return e;
}

std::string_view StageBreakdown::dominant() const noexcept {
  if (total() == 0) return {};
  std::string_view name = "connect";
  std::uint64_t best = connect;
  const std::pair<std::string_view, std::uint64_t> rest[] = {
      {"handshake", handshake}, {"query", query}, {"timeout", timeout}, {"other", other}};
  for (const auto& [candidate, count] : rest) {
    if (count > best) {
      best = count;
      name = candidate;
    }
  }
  return name;
}

util::Json StageBreakdown::to_json() const {
  util::JsonObject o;
  o["connect"] = connect;
  o["handshake"] = handshake;
  o["query"] = query;
  o["timeout"] = timeout;
  o["other"] = other;
  return util::Json(std::move(o));
}

Result<StageBreakdown> StageBreakdown::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("stage breakdown: not an object")};
  StageBreakdown b;
  const auto read = [&j](const char* key, std::uint64_t& out) {
    if (j.at(key).is_number()) out = static_cast<std::uint64_t>(j.at(key).as_number());
  };
  read("connect", b.connect);
  read("handshake", b.handshake);
  read("query", b.query);
  read("timeout", b.timeout);
  read("other", b.other);
  return b;
}

util::Json PhaseProfile::to_json() const {
  util::JsonObject o;
  o["queries"] = queries;
  o["failures"] = failures;
  o["availability"] = availability;
  o["reused_fraction"] = reused_fraction;
  o["response_ms"] = response_ms;
  o["tcp_ms"] = tcp_ms;
  o["tls_ms"] = tls_ms;
  o["quic_ms"] = quic_ms;
  o["wait_ms"] = wait_ms;
  o["exchange_ms"] = exchange_ms;
  return util::Json(std::move(o));
}

Result<PhaseProfile> PhaseProfile::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("phase profile: not an object")};
  PhaseProfile p;
  if (j.at("queries").is_number()) p.queries = static_cast<std::uint64_t>(j.at("queries").as_number());
  if (j.at("failures").is_number()) {
    p.failures = static_cast<std::uint64_t>(j.at("failures").as_number());
  }
  const auto read = [&j](const char* key, double& out) {
    if (j.at(key).is_number()) out = j.at(key).as_number();
  };
  read("availability", p.availability);
  read("reused_fraction", p.reused_fraction);
  read("response_ms", p.response_ms);
  read("tcp_ms", p.tcp_ms);
  read("tls_ms", p.tls_ms);
  read("quic_ms", p.quic_ms);
  read("wait_ms", p.wait_ms);
  read("exchange_ms", p.exchange_ms);
  return p;
}

util::Json PhaseDelta::to_json() const {
  util::JsonObject o;
  o["availability"] = availability;
  o["reused_fraction"] = reused_fraction;
  o["response_ms"] = response_ms;
  o["tcp_ms"] = tcp_ms;
  o["tls_ms"] = tls_ms;
  o["quic_ms"] = quic_ms;
  o["wait_ms"] = wait_ms;
  o["exchange_ms"] = exchange_ms;
  return util::Json(std::move(o));
}

Result<PhaseDelta> PhaseDelta::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("phase delta: not an object")};
  PhaseDelta d;
  const auto read = [&j](const char* key, double& out) {
    if (j.at(key).is_number()) out = j.at(key).as_number();
  };
  read("availability", d.availability);
  read("reused_fraction", d.reused_fraction);
  read("response_ms", d.response_ms);
  read("tcp_ms", d.tcp_ms);
  read("tls_ms", d.tls_ms);
  read("quic_ms", d.quic_ms);
  read("wait_ms", d.wait_ms);
  read("exchange_ms", d.exchange_ms);
  return d;
}

util::Json Exemplar::to_json() const {
  util::JsonObject o;
  o["vantage"] = vantage;
  o["domain"] = domain;
  o["epoch"] = epoch;
  o["round"] = round;
  o["ok"] = ok;
  o["response_ms"] = response_ms;
  o["failure_stage"] = failure_stage;
  o["error_class"] = error_class;
  o["flight_ref"] = flight_ref;
  return util::Json(std::move(o));
}

Result<Exemplar> Exemplar::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("exemplar: not an object")};
  Exemplar e;
  if (j.at("vantage").is_string()) e.vantage = j.at("vantage").as_string();
  if (j.at("domain").is_string()) e.domain = j.at("domain").as_string();
  if (j.at("epoch").is_number()) e.epoch = static_cast<int>(j.at("epoch").as_number());
  if (j.at("round").is_number()) e.round = static_cast<int>(j.at("round").as_number());
  if (j.at("ok").is_bool()) e.ok = j.at("ok").as_bool();
  if (j.at("response_ms").is_number()) e.response_ms = j.at("response_ms").as_number();
  if (j.at("failure_stage").is_string()) e.failure_stage = j.at("failure_stage").as_string();
  if (j.at("error_class").is_string()) e.error_class = j.at("error_class").as_string();
  if (j.at("flight_ref").is_string()) e.flight_ref = j.at("flight_ref").as_string();
  return e;
}

StageBreakdown count_stages(const std::vector<QueryEvidence>& rows, int from_epoch,
                            int to_epoch) {
  StageBreakdown b;
  for (const QueryEvidence& row : rows) {
    if (row.ok || !in_window(row, from_epoch, to_epoch)) continue;
    if (row.failure_stage == "connect") {
      ++b.connect;
    } else if (row.failure_stage == "handshake") {
      ++b.handshake;
    } else if (row.failure_stage == "query") {
      ++b.query;
    } else if (row.failure_stage == "timeout") {
      ++b.timeout;
    } else {
      ++b.other;
    }
  }
  return b;
}

PhaseProfile profile_phases(const std::vector<QueryEvidence>& rows, int from_epoch,
                            int to_epoch) {
  PhaseProfile p;
  std::vector<double> response, tcp, tls, quic, wait, exchange;
  std::uint64_t reused = 0;
  for (const QueryEvidence& row : rows) {
    if (!in_window(row, from_epoch, to_epoch)) continue;
    ++p.queries;
    if (!row.ok) {
      ++p.failures;
      continue;
    }
    if (row.reused) ++reused;
    response.push_back(row.response_ms);
    tcp.push_back(row.tcp_ms);
    tls.push_back(row.tls_ms);
    quic.push_back(row.quic_ms);
    wait.push_back(row.wait_ms);
    exchange.push_back(row.exchange_ms);
  }
  if (p.queries > 0) {
    p.availability = 1.0 - static_cast<double>(p.failures) / static_cast<double>(p.queries);
  }
  if (!response.empty()) {
    p.reused_fraction = static_cast<double>(reused) / static_cast<double>(response.size());
    p.response_ms = stats::median(std::move(response));
    p.tcp_ms = stats::median(std::move(tcp));
    p.tls_ms = stats::median(std::move(tls));
    p.quic_ms = stats::median(std::move(quic));
    p.wait_ms = stats::median(std::move(wait));
    p.exchange_ms = stats::median(std::move(exchange));
  }
  return p;
}

PhaseDelta phase_delta(const PhaseProfile& baseline, const PhaseProfile& window) {
  PhaseDelta d;
  d.availability = window.availability - baseline.availability;
  d.reused_fraction = window.reused_fraction - baseline.reused_fraction;
  d.response_ms = window.response_ms - baseline.response_ms;
  d.tcp_ms = window.tcp_ms - baseline.tcp_ms;
  d.tls_ms = window.tls_ms - baseline.tls_ms;
  d.quic_ms = window.quic_ms - baseline.quic_ms;
  d.wait_ms = window.wait_ms - baseline.wait_ms;
  d.exchange_ms = window.exchange_ms - baseline.exchange_ms;
  return d;
}

std::vector<Exemplar> pick_exemplars(const std::vector<QueryEvidence>& rows, int from_epoch,
                                     int to_epoch, std::size_t limit) {
  std::vector<const QueryEvidence*> failures, successes;
  for (const QueryEvidence& row : rows) {
    if (!in_window(row, from_epoch, to_epoch)) continue;
    (row.ok ? successes : failures).push_back(&row);
  }
  const auto coords = [](const QueryEvidence* r) {
    return std::tie(r->epoch, r->vantage, r->round, r->domain);
  };
  std::sort(failures.begin(), failures.end(),
            [&](const QueryEvidence* a, const QueryEvidence* b) { return coords(a) < coords(b); });
  std::sort(successes.begin(), successes.end(),
            [&](const QueryEvidence* a, const QueryEvidence* b) {
              if (a->response_ms != b->response_ms) return a->response_ms > b->response_ms;
              return coords(a) < coords(b);
            });

  std::vector<Exemplar> out;
  const auto take = [&out](const QueryEvidence& row) {
    Exemplar e;
    e.vantage = row.vantage;
    e.domain = row.domain;
    e.epoch = row.epoch;
    e.round = row.round;
    e.ok = row.ok;
    e.response_ms = row.response_ms;
    e.failure_stage = row.failure_stage;
    e.error_class = row.error_class;
    out.push_back(std::move(e));
  };
  for (const QueryEvidence* row : failures) {
    if (out.size() >= limit) return out;
    take(*row);
  }
  for (const QueryEvidence* row : successes) {
    if (out.size() >= limit) return out;
    take(*row);
  }
  return out;
}

}  // namespace ednsm::obs
