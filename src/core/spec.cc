#include "core/spec.h"

#include <algorithm>

#include "geo/vantage.h"

namespace ednsm::core {

namespace {

util::Json string_array(const std::vector<std::string>& v) {
  util::JsonArray arr;
  arr.reserve(v.size());
  for (const std::string& s : v) arr.emplace_back(s);
  return util::Json(std::move(arr));
}

Result<std::vector<std::string>> parse_string_array(const util::Json& j, const char* what) {
  if (!j.is_array()) return Err{std::string("spec: ") + what + " must be an array"};
  std::vector<std::string> out;
  for (const util::Json& e : j.as_array()) {
    if (!e.is_string()) return Err{std::string("spec: ") + what + " entries must be strings"};
    out.push_back(e.as_string());
  }
  return out;
}

std::string_view protocol_name(client::Protocol p) { return client::to_string(p); }

Result<client::Protocol> parse_protocol(const std::string& s) {
  if (auto p = client::protocol_from_string(s); p.has_value()) return *p;
  return Err{std::string("spec: unknown protocol '") + s + "'"};
}

}  // namespace

util::Json FaultWindow::to_json() const {
  util::JsonObject o;
  o["resolver"] = resolver;
  o["from_round"] = from_round;
  o["to_round"] = to_round;
  return util::Json(std::move(o));
}

Result<FaultWindow> FaultWindow::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("fault window: not an object")};
  FaultWindow w;
  if (!j.at("resolver").is_string() || !j.at("from_round").is_number() ||
      !j.at("to_round").is_number()) {
    return Err{std::string("fault window: missing required fields")};
  }
  w.resolver = j.at("resolver").as_string();
  w.from_round = static_cast<int>(j.at("from_round").as_number());
  w.to_round = static_cast<int>(j.at("to_round").as_number());
  return w;
}

Result<void> MeasurementSpec::validate() const {
  if (resolvers.empty()) return Err{std::string("spec: no resolvers")};
  if (domains.empty()) return Err{std::string("spec: no domains")};
  if (vantage_ids.empty()) return Err{std::string("spec: no vantage points")};
  const auto& known = geo::paper_vantage_points();
  for (const std::string& id : vantage_ids) {
    if (std::none_of(known.begin(), known.end(),
                     [&](const geo::VantagePoint& v) { return v.id == id; })) {
      return Err{"spec: unknown vantage point: " + id};
    }
  }
  if (rounds <= 0) return Err{std::string("spec: rounds must be positive")};
  if (round_interval <= netsim::kZeroDuration) {
    return Err{std::string("spec: round interval must be positive")};
  }
  if (ping_timeout <= netsim::kZeroDuration) {
    return Err{std::string("spec: ping timeout must be positive")};
  }
  if (query_options.timeout <= netsim::kZeroDuration) {
    return Err{std::string("spec: query timeout must be positive")};
  }
  for (const FaultWindow& w : fault_windows) {
    if (w.resolver.empty()) return Err{std::string("spec: fault window needs a resolver")};
    if (std::find(resolvers.begin(), resolvers.end(), w.resolver) == resolvers.end()) {
      return Err{"spec: fault window names a resolver the spec does not measure: " + w.resolver};
    }
    if (w.from_round < 0 || w.to_round <= w.from_round) {
      return Err{std::string("spec: fault window rounds must satisfy 0 <= from < to")};
    }
  }
  return {};
}

util::Json MeasurementSpec::to_json() const {
  util::JsonObject o;
  o["resolvers"] = string_array(resolvers);
  o["domains"] = string_array(domains);
  o["vantage_ids"] = string_array(vantage_ids);
  o["protocol"] = std::string(protocol_name(protocol));
  o["rounds"] = rounds;
  o["round_interval_s"] =
      static_cast<double>(std::chrono::duration_cast<std::chrono::seconds>(round_interval).count());
  o["ping_timeout_ms"] = netsim::to_ms(ping_timeout);
  o["timeout_ms"] = netsim::to_ms(query_options.timeout);
  o["reuse"] = std::string(transport::to_string(query_options.reuse));
  o["use_post"] = query_options.use_post;
  o["use_http2"] = query_options.use_http2;
  o["early_data"] = query_options.offer_early_data;
  o["pad_block"] = static_cast<std::uint64_t>(query_options.pad_block);
  o["seed"] = seed;
  if (!fault_windows.empty()) {
    util::JsonArray arr;
    arr.reserve(fault_windows.size());
    for (const FaultWindow& w : fault_windows) arr.push_back(w.to_json());
    o["fault_windows"] = util::Json(std::move(arr));
  }
  return util::Json(std::move(o));
}

Result<MeasurementSpec> MeasurementSpec::from_json(const util::Json& j) {
  MeasurementSpec spec;
  auto resolvers = parse_string_array(j.at("resolvers"), "resolvers");
  if (!resolvers) return Err{resolvers.error()};
  spec.resolvers = std::move(resolvers).value();
  auto domains = parse_string_array(j.at("domains"), "domains");
  if (!domains) return Err{domains.error()};
  spec.domains = std::move(domains).value();
  auto vantages = parse_string_array(j.at("vantage_ids"), "vantage_ids");
  if (!vantages) return Err{vantages.error()};
  spec.vantage_ids = std::move(vantages).value();

  if (!j.at("protocol").is_string()) return Err{std::string("spec: missing protocol")};
  auto proto = parse_protocol(j.at("protocol").as_string());
  if (!proto) return Err{proto.error()};
  spec.protocol = proto.value();

  if (j.at("rounds").is_number()) spec.rounds = static_cast<int>(j.at("rounds").as_number());
  if (j.at("round_interval_s").is_number()) {
    spec.round_interval =
        std::chrono::seconds(static_cast<std::int64_t>(j.at("round_interval_s").as_number()));
  }
  if (j.at("ping_timeout_ms").is_number()) {
    spec.ping_timeout = netsim::from_ms(j.at("ping_timeout_ms").as_number());
  }
  if (j.at("timeout_ms").is_number()) {
    spec.query_options.timeout = netsim::from_ms(j.at("timeout_ms").as_number());
  }
  if (j.at("use_post").is_bool()) spec.query_options.use_post = j.at("use_post").as_bool();
  if (j.at("use_http2").is_bool()) spec.query_options.use_http2 = j.at("use_http2").as_bool();
  if (j.at("early_data").is_bool()) {
    spec.query_options.offer_early_data = j.at("early_data").as_bool();
  }
  if (j.at("pad_block").is_number()) {
    spec.query_options.pad_block = static_cast<std::size_t>(j.at("pad_block").as_number());
  }
  if (j.at("reuse").is_string()) {
    const std::string& r = j.at("reuse").as_string();
    if (auto policy = transport::reuse_policy_from_string(r); policy.has_value()) {
      spec.query_options.reuse = *policy;
    } else {
      return Err{std::string("spec: unknown reuse policy '") + r + "'"};
    }
  }
  if (j.at("seed").is_number()) spec.seed = static_cast<std::uint64_t>(j.at("seed").as_number());
  if (j.at("fault_windows").is_array()) {
    for (const util::Json& e : j.at("fault_windows").as_array()) {
      auto w = FaultWindow::from_json(e);
      if (!w) return Err{w.error()};
      spec.fault_windows.push_back(std::move(w).value());
    }
  }

  if (auto v = spec.validate(); !v) return Err{v.error()};
  return spec;
}

std::string_view derive_failure_stage(std::string_view error_class) noexcept {
  // "bootstrap-failure" never reached the wire; the closest phase is connect.
  if (error_class == "connect-refused" || error_class == "connect-timeout" ||
      error_class == "bootstrap-failure") {
    return "connect";
  }
  if (error_class == "tls-failure") return "handshake";
  if (error_class == "http-error" || error_class == "malformed") return "query";
  if (error_class == "timeout") return "timeout";
  return {};
}

util::Json ResultRecord::to_json() const {
  util::JsonObject o;
  o["vantage"] = vantage;
  o["resolver"] = resolver;
  o["domain"] = domain;
  o["protocol"] = std::string(protocol_name(protocol));
  o["round"] = round;
  o["issued_at_ms"] = issued_at_ms;
  o["ok"] = ok;
  o["response_ms"] = response_ms;
  o["connect_ms"] = connect_ms;
  if (tcp_handshake_ms != 0) o["tcp_handshake_ms"] = tcp_handshake_ms;
  if (tls_handshake_ms != 0) o["tls_handshake_ms"] = tls_handshake_ms;
  if (quic_handshake_ms != 0) o["quic_handshake_ms"] = quic_handshake_ms;
  if (pool_wait_ms != 0) o["pool_wait_ms"] = pool_wait_ms;
  if (exchange_ms != 0) o["exchange_ms"] = exchange_ms;
  o["reused"] = connection_reused;
  if (ok) o["rcode"] = rcode;
  if (!ok) {
    o["error_class"] = error_class;
    o["error_detail"] = error_detail;
    if (!failure_stage.empty()) o["failure_stage"] = failure_stage;
  }
  if (http_status != 0) o["http_status"] = http_status;
  o["answers"] = answer_count;
  return util::Json(std::move(o));
}

// Keys in ascending byte order, the order to_json()'s JsonObject iterates
// in; JsonWriter::key throws on any other.
void ResultRecord::write_json(util::JsonWriter& w) const {
  const auto optional_number = [&w](std::string_view key, double v) {
    if (v == 0) return;
    w.key(key);
    w.number(v);
  };
  w.begin_object();
  w.key("answers");
  w.number(answer_count);
  w.key("connect_ms");
  w.number(connect_ms);
  w.key("domain");
  w.string(domain);
  if (!ok) {
    w.key("error_class");
    w.string(error_class);
    w.key("error_detail");
    w.string(error_detail);
  }
  optional_number("exchange_ms", exchange_ms);
  if (!ok && !failure_stage.empty()) {
    w.key("failure_stage");
    w.string(failure_stage);
  }
  optional_number("http_status", http_status);
  w.key("issued_at_ms");
  w.number(issued_at_ms);
  w.key("ok");
  w.boolean(ok);
  optional_number("pool_wait_ms", pool_wait_ms);
  w.key("protocol");
  w.string(protocol_name(protocol));
  optional_number("quic_handshake_ms", quic_handshake_ms);
  if (ok) {
    w.key("rcode");
    w.string(rcode);
  }
  w.key("resolver");
  w.string(resolver);
  w.key("response_ms");
  w.number(response_ms);
  w.key("reused");
  w.boolean(connection_reused);
  w.key("round");
  w.number(round);
  optional_number("tcp_handshake_ms", tcp_handshake_ms);
  optional_number("tls_handshake_ms", tls_handshake_ms);
  w.key("vantage");
  w.string(vantage);
  w.end_object();
}

Result<ResultRecord> ResultRecord::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("record: not an object")};
  ResultRecord r;
  if (!j.at("vantage").is_string() || !j.at("resolver").is_string() ||
      !j.at("domain").is_string() || !j.at("ok").is_bool()) {
    return Err{std::string("record: missing required fields")};
  }
  r.vantage = j.at("vantage").as_string();
  r.resolver = j.at("resolver").as_string();
  r.domain = j.at("domain").as_string();
  if (j.at("protocol").is_string()) {
    auto p = parse_protocol(j.at("protocol").as_string());
    if (!p) return Err{p.error()};
    r.protocol = p.value();
  }
  r.ok = j.at("ok").as_bool();
  if (j.at("round").is_number()) r.round = static_cast<int>(j.at("round").as_number());
  if (j.at("issued_at_ms").is_number()) r.issued_at_ms = j.at("issued_at_ms").as_number();
  if (j.at("response_ms").is_number()) r.response_ms = j.at("response_ms").as_number();
  if (j.at("connect_ms").is_number()) r.connect_ms = j.at("connect_ms").as_number();
  if (j.at("tcp_handshake_ms").is_number()) {
    r.tcp_handshake_ms = j.at("tcp_handshake_ms").as_number();
  }
  if (j.at("tls_handshake_ms").is_number()) {
    r.tls_handshake_ms = j.at("tls_handshake_ms").as_number();
  }
  if (j.at("quic_handshake_ms").is_number()) {
    r.quic_handshake_ms = j.at("quic_handshake_ms").as_number();
  }
  if (j.at("pool_wait_ms").is_number()) r.pool_wait_ms = j.at("pool_wait_ms").as_number();
  if (j.at("exchange_ms").is_number()) r.exchange_ms = j.at("exchange_ms").as_number();
  if (j.at("reused").is_bool()) r.connection_reused = j.at("reused").as_bool();
  if (j.at("rcode").is_string()) r.rcode = j.at("rcode").as_string();
  if (j.at("error_class").is_string()) r.error_class = j.at("error_class").as_string();
  if (j.at("error_detail").is_string()) r.error_detail = j.at("error_detail").as_string();
  if (j.at("failure_stage").is_string()) {
    r.failure_stage = j.at("failure_stage").as_string();
  } else if (!r.ok && !r.error_class.empty()) {
    // Files written before the field existed: reconstruct from error_class.
    r.failure_stage = std::string(derive_failure_stage(r.error_class));
  }
  if (j.at("http_status").is_number()) {
    r.http_status = static_cast<int>(j.at("http_status").as_number());
  }
  if (j.at("answers").is_number()) r.answer_count = static_cast<int>(j.at("answers").as_number());
  return r;
}

util::Json PingRecord::to_json() const {
  util::JsonObject o;
  o["vantage"] = vantage;
  o["resolver"] = resolver;
  o["round"] = round;
  o["ok"] = ok;
  if (ok) o["rtt_ms"] = rtt_ms;
  return util::Json(std::move(o));
}

void PingRecord::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("ok");
  w.boolean(ok);
  w.key("resolver");
  w.string(resolver);
  w.key("round");
  w.number(round);
  if (ok) {
    w.key("rtt_ms");
    w.number(rtt_ms);
  }
  w.key("vantage");
  w.string(vantage);
  w.end_object();
}

Result<PingRecord> PingRecord::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("ping: not an object")};
  PingRecord p;
  if (!j.at("vantage").is_string() || !j.at("resolver").is_string() || !j.at("ok").is_bool()) {
    return Err{std::string("ping: missing required fields")};
  }
  p.vantage = j.at("vantage").as_string();
  p.resolver = j.at("resolver").as_string();
  p.ok = j.at("ok").as_bool();
  if (j.at("round").is_number()) p.round = static_cast<int>(j.at("round").as_number());
  if (j.at("rtt_ms").is_number()) p.rtt_ms = j.at("rtt_ms").as_number();
  return p;
}

}  // namespace ednsm::core
