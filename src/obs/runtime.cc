#include "obs/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/bytes.h"
#include "util/fs.h"

namespace ednsm::obs {

namespace {

// A 64-bit identity field (fingerprint, seed) stored as 16 hex digits:
// JSON numbers are doubles and cannot hold all 64 bits.
Result<std::uint64_t> hex_field(const util::Json& j, const char* field) {
  if (!j.is_string()) return Err{std::string(field) + ": expected a hex string"};
  auto v = util::u64_from_hex(j.as_string());
  if (!v) return Err{std::string(field) + ": " + v.error()};
  return v;
}

Result<std::uint64_t> u64_field(const util::Json& j, const char* field) {
  const util::Json& v = j.at(field);
  if (!v.is_number() || v.as_number() < 0) {
    return Err{std::string(field) + ": expected a non-negative number"};
  }
  return static_cast<std::uint64_t>(v.as_number());
}

Result<double> ms_field(const util::Json& j, const char* field) {
  const util::Json& v = j.at(field);
  if (!v.is_number() || v.as_number() < 0) {
    return Err{std::string(field) + ": expected a non-negative number"};
  }
  return v.as_number();
}

Result<void> expect_schema(const util::Json& j, std::string_view name, int version) {
  if (!j.is_object()) return Err{std::string("expected a JSON object")};
  if (!j.at("schema").is_string() || j.at("schema").as_string() != name) {
    return Err{"schema: expected \"" + std::string(name) + "\""};
  }
  if (!j.at("version").is_number() ||
      static_cast<int>(j.at("version").as_number()) != version) {
    return Err{"version: expected " + std::to_string(version)};
  }
  return Result<void>{};
}

}  // namespace

std::uint64_t runtime_now_ns() {
  // The telemetry domain is the sanctioned home of the host clock; the
  // obs-domain-separation lint rule polices every call path out of here.
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t runtime_unix_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

// --------------------------------------------------------------------------
// RuntimeStageSnapshot
// --------------------------------------------------------------------------

util::Json RuntimeStageSnapshot::stage_json() const {
  util::JsonObject o;
  o["stage"] = util::Json(stage);
  o["items_in"] = util::Json(static_cast<double>(items_in));
  o["items_out"] = util::Json(static_cast<double>(items_out));
  o["stall_spins"] = util::Json(static_cast<double>(stall_spins));
  o["stall_ns"] = util::Json(static_cast<double>(stall_ns));
  o["busy_ns"] = util::Json(static_cast<double>(busy_ns));
  o["max_queue_depth"] = util::Json(static_cast<double>(max_queue_depth));
  return util::Json(std::move(o));
}

Result<RuntimeStageSnapshot> RuntimeStageSnapshot::stage_from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("stage entry: expected an object")};
  RuntimeStageSnapshot s;
  if (!j.at("stage").is_string() || j.at("stage").as_string().empty()) {
    return Err{std::string("stage entry: missing stage name")};
  }
  s.stage = j.at("stage").as_string();
  auto items_in = u64_field(j, "items_in");
  auto items_out = u64_field(j, "items_out");
  auto stall_spins = u64_field(j, "stall_spins");
  auto stall_ns = u64_field(j, "stall_ns");
  auto busy_ns = u64_field(j, "busy_ns");
  auto max_depth = u64_field(j, "max_queue_depth");
  for (const auto* r : {&items_in, &items_out, &stall_spins, &stall_ns, &busy_ns, &max_depth}) {
    if (!*r) return Err{"stage \"" + s.stage + "\": " + r->error()};
  }
  s.items_in = items_in.value();
  s.items_out = items_out.value();
  s.stall_spins = stall_spins.value();
  s.stall_ns = stall_ns.value();
  s.busy_ns = busy_ns.value();
  s.max_queue_depth = max_depth.value();
  return s;
}

// --------------------------------------------------------------------------
// RuntimeHeartbeat
// --------------------------------------------------------------------------

util::Json RuntimeHeartbeat::heartbeat_json() const {
  util::JsonObject o;
  o["schema"] = util::Json(std::string(kSchemaName));
  o["version"] = util::Json(kSchemaVersion);
  o["status"] = util::Json(status);
  o["spec_fingerprint"] = util::Json(util::u64_to_hex(spec_fingerprint));
  util::JsonObject shard;
  shard["k"] = util::Json(static_cast<double>(shard_k));
  shard["n"] = util::Json(static_cast<double>(shard_n));
  o["shard"] = util::Json(std::move(shard));
  o["threads"] = util::Json(threads);
  o["started_unix_ms"] = util::Json(static_cast<double>(started_unix_ms));
  o["updated_unix_ms"] = util::Json(static_cast<double>(updated_unix_ms));
  o["elapsed_ms"] = util::Json(elapsed_ms);
  o["plans_total"] = util::Json(static_cast<double>(plans_total));
  o["plans_done"] = util::Json(static_cast<double>(plans_done));
  o["collector_lag"] = util::Json(static_cast<double>(collector_lag));
  o["records"] = util::Json(static_cast<double>(records));
  o["bytes_encoded"] = util::Json(static_cast<double>(bytes_encoded));
  o["completion"] = util::Json(completion);
  o["plans_per_sec"] = util::Json(plans_per_sec);
  o["eta_ms"] = util::Json(eta_ms);
  util::JsonArray stage_rows;
  stage_rows.reserve(stages.size());
  for (const RuntimeStageSnapshot& s : stages) stage_rows.push_back(s.stage_json());
  o["stages"] = util::Json(std::move(stage_rows));
  return util::Json(std::move(o));
}

Result<RuntimeHeartbeat> RuntimeHeartbeat::heartbeat_from_json(const util::Json& j) {
  if (auto ok = expect_schema(j, kSchemaName, kSchemaVersion); !ok) return Err{ok.error()};
  RuntimeHeartbeat h;
  if (!j.at("status").is_string()) return Err{std::string("status: expected a string")};
  h.status = j.at("status").as_string();
  if (h.status != "starting" && h.status != "running" && h.status != "done" &&
      h.status != "failed") {
    return Err{"status: unknown value \"" + h.status + "\""};
  }
  auto fp = hex_field(j.at("spec_fingerprint"), "spec_fingerprint");
  if (!fp) return Err{fp.error()};
  h.spec_fingerprint = fp.value();
  const util::Json& shard = j.at("shard");
  auto k = u64_field(shard, "k");
  auto n = u64_field(shard, "n");
  if (!k || !n) return Err{std::string("shard: expected {k, n} numbers")};
  if (n.value() < 1 || k.value() >= n.value()) {
    return Err{std::string("shard: require 0 <= k < n")};
  }
  h.shard_k = static_cast<std::size_t>(k.value());
  h.shard_n = static_cast<std::size_t>(n.value());
  if (!j.at("threads").is_number() || j.at("threads").as_number() < 0) {
    return Err{std::string("threads: expected a non-negative number")};
  }
  h.threads = static_cast<int>(j.at("threads").as_number());
  auto started = u64_field(j, "started_unix_ms");
  auto updated = u64_field(j, "updated_unix_ms");
  if (!started) return Err{started.error()};
  if (!updated) return Err{updated.error()};
  if (updated.value() < started.value()) {
    return Err{std::string("updated_unix_ms earlier than started_unix_ms")};
  }
  h.started_unix_ms = started.value();
  h.updated_unix_ms = updated.value();
  auto elapsed = ms_field(j, "elapsed_ms");
  if (!elapsed) return Err{elapsed.error()};
  h.elapsed_ms = elapsed.value();
  auto plans_total = u64_field(j, "plans_total");
  auto plans_done = u64_field(j, "plans_done");
  auto lag = u64_field(j, "collector_lag");
  auto records = u64_field(j, "records");
  auto bytes = u64_field(j, "bytes_encoded");
  for (const auto* r : {&plans_total, &plans_done, &lag, &records, &bytes}) {
    if (!*r) return Err{r->error()};
  }
  if (plans_done.value() > plans_total.value()) {
    return Err{std::string("plans_done exceeds plans_total")};
  }
  h.plans_total = plans_total.value();
  h.plans_done = plans_done.value();
  h.collector_lag = lag.value();
  h.records = records.value();
  h.bytes_encoded = bytes.value();
  if (!j.at("completion").is_number() || j.at("completion").as_number() < 0 ||
      j.at("completion").as_number() > 1) {
    return Err{std::string("completion: expected a number in [0, 1]")};
  }
  h.completion = j.at("completion").as_number();
  auto rate = ms_field(j, "plans_per_sec");
  auto eta = ms_field(j, "eta_ms");
  if (!rate) return Err{rate.error()};
  if (!eta) return Err{eta.error()};
  h.plans_per_sec = rate.value();
  h.eta_ms = eta.value();
  if (!j.at("stages").is_array()) return Err{std::string("stages: expected an array")};
  for (const util::Json& row : j.at("stages").as_array()) {
    auto s = RuntimeStageSnapshot::stage_from_json(row);
    if (!s) return Err{s.error()};
    h.stages.push_back(std::move(s).value());
  }
  return h;
}

// --------------------------------------------------------------------------
// RunManifest
// --------------------------------------------------------------------------

util::Json RunManifest::manifest_json() const {
  util::JsonObject o;
  o["schema"] = util::Json(std::string(kSchemaName));
  o["version"] = util::Json(kSchemaVersion);
  o["spec_fingerprint"] = util::Json(util::u64_to_hex(spec_fingerprint));
  o["seed"] = util::Json(util::u64_to_hex(seed));
  util::JsonObject shard;
  shard["k"] = util::Json(static_cast<double>(shard_k));
  shard["n"] = util::Json(static_cast<double>(shard_n));
  o["shard"] = util::Json(std::move(shard));
  o["total_shards"] = util::Json(static_cast<double>(total_shards));
  o["plans"] = util::Json(static_cast<double>(plans));
  o["threads"] = util::Json(threads);
  o["status"] = util::Json(status);
  o["started_unix_ms"] = util::Json(static_cast<double>(started_unix_ms));
  o["finished_unix_ms"] = util::Json(static_cast<double>(finished_unix_ms));
  o["wall_ms"] = util::Json(wall_ms);
  o["records"] = util::Json(static_cast<double>(records));
  o["pings"] = util::Json(static_cast<double>(pings));
  o["bytes_encoded"] = util::Json(static_cast<double>(bytes_encoded));
  util::JsonArray stage_rows;
  stage_rows.reserve(stages.size());
  for (const RuntimeStageSnapshot& s : stages) stage_rows.push_back(s.stage_json());
  o["stages"] = util::Json(std::move(stage_rows));
  return util::Json(std::move(o));
}

Result<RunManifest> RunManifest::manifest_from_json(const util::Json& j) {
  if (auto ok = expect_schema(j, kSchemaName, kSchemaVersion); !ok) return Err{ok.error()};
  RunManifest m;
  auto fp = hex_field(j.at("spec_fingerprint"), "spec_fingerprint");
  auto seed = hex_field(j.at("seed"), "seed");
  if (!fp) return Err{fp.error()};
  if (!seed) return Err{seed.error()};
  m.spec_fingerprint = fp.value();
  m.seed = seed.value();
  const util::Json& shard = j.at("shard");
  auto k = u64_field(shard, "k");
  auto n = u64_field(shard, "n");
  if (!k || !n) return Err{std::string("shard: expected {k, n} numbers")};
  if (n.value() < 1 || k.value() >= n.value()) {
    return Err{std::string("shard: require 0 <= k < n")};
  }
  m.shard_k = static_cast<std::size_t>(k.value());
  m.shard_n = static_cast<std::size_t>(n.value());
  auto total_shards = u64_field(j, "total_shards");
  auto plans = u64_field(j, "plans");
  if (!total_shards) return Err{total_shards.error()};
  if (!plans) return Err{plans.error()};
  m.total_shards = static_cast<std::size_t>(total_shards.value());
  m.plans = static_cast<std::size_t>(plans.value());
  if (m.plans > m.total_shards) return Err{std::string("plans exceeds total_shards")};
  if (!j.at("threads").is_number() || j.at("threads").as_number() < 0) {
    return Err{std::string("threads: expected a non-negative number")};
  }
  m.threads = static_cast<int>(j.at("threads").as_number());
  if (!j.at("status").is_string()) return Err{std::string("status: expected a string")};
  m.status = j.at("status").as_string();
  if (m.status != "ok" && m.status != "failed") {
    return Err{"status: unknown value \"" + m.status + "\""};
  }
  auto started = u64_field(j, "started_unix_ms");
  auto finished = u64_field(j, "finished_unix_ms");
  if (!started) return Err{started.error()};
  if (!finished) return Err{finished.error()};
  if (finished.value() < started.value()) {
    return Err{std::string("finished_unix_ms earlier than started_unix_ms")};
  }
  m.started_unix_ms = started.value();
  m.finished_unix_ms = finished.value();
  auto wall = ms_field(j, "wall_ms");
  if (!wall) return Err{wall.error()};
  m.wall_ms = wall.value();
  auto records = u64_field(j, "records");
  auto pings = u64_field(j, "pings");
  auto bytes = u64_field(j, "bytes_encoded");
  for (const auto* r : {&records, &pings, &bytes}) {
    if (!*r) return Err{r->error()};
  }
  m.records = records.value();
  m.pings = pings.value();
  m.bytes_encoded = bytes.value();
  if (!j.at("stages").is_array()) return Err{std::string("stages: expected an array")};
  for (const util::Json& row : j.at("stages").as_array()) {
    auto s = RuntimeStageSnapshot::stage_from_json(row);
    if (!s) return Err{s.error()};
    m.stages.push_back(std::move(s).value());
  }
  return m;
}

Result<RunManifest> RunManifest::manifest_load(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{text.error()};
  auto json = util::Json::parse(text.value());
  if (!json) return Err{path + ": not valid JSON: " + json.error()};
  auto parsed = manifest_from_json(json.value());
  if (!parsed) return Err{path + ": " + parsed.error()};
  return parsed;
}

// --------------------------------------------------------------------------
// Campaign-level fold
// --------------------------------------------------------------------------

std::vector<std::size_t> straggler_shards(const std::vector<RunManifest>& manifests) {
  std::vector<std::size_t> out;
  if (manifests.size() < 2) return out;
  std::vector<double> walls;
  walls.reserve(manifests.size());
  for (const RunManifest& m : manifests) walls.push_back(m.wall_ms);
  std::sort(walls.begin(), walls.end());
  const std::size_t mid = walls.size() / 2;
  const double median =
      walls.size() % 2 == 1 ? walls[mid] : (walls[mid - 1] + walls[mid]) / 2.0;
  for (std::size_t i = 0; i < manifests.size(); ++i) {
    if (median > 0 && manifests[i].wall_ms > 2.0 * median) out.push_back(i);
  }
  return out;
}

util::Json campaign_manifest_json(const std::vector<RunManifest>& manifests) {
  util::JsonObject o;
  o["schema"] = util::Json(std::string("ednsm-campaign-manifest"));
  o["version"] = util::Json(1);
  std::uint64_t records = 0;
  std::uint64_t pings = 0;
  std::uint64_t bytes = 0;
  std::size_t plans = 0;
  double max_wall = 0;
  double sum_wall = 0;
  // Emit shards sorted by slice index so the fold is independent of the
  // order the merge was handed the manifest files.
  std::vector<const RunManifest*> ordered;
  ordered.reserve(manifests.size());
  for (const RunManifest& m : manifests) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const RunManifest* a, const RunManifest* b) { return a->shard_k < b->shard_k; });
  const std::vector<std::size_t> stragglers = straggler_shards(manifests);
  util::JsonArray shard_rows;
  for (const RunManifest* m : ordered) {
    records += m->records;
    pings += m->pings;
    bytes += m->bytes_encoded;
    plans += m->plans;
    max_wall = std::max(max_wall, m->wall_ms);
    sum_wall += m->wall_ms;
    util::JsonObject row;
    row["k"] = util::Json(static_cast<double>(m->shard_k));
    row["status"] = util::Json(m->status);
    row["plans"] = util::Json(static_cast<double>(m->plans));
    row["threads"] = util::Json(m->threads);
    row["wall_ms"] = util::Json(m->wall_ms);
    row["records"] = util::Json(static_cast<double>(m->records));
    row["plans_per_sec"] = util::Json(
        m->wall_ms > 0 ? static_cast<double>(m->plans) / (m->wall_ms / 1000.0) : 0.0);
    bool straggler = false;
    for (const std::size_t idx : stragglers) {
      if (&manifests[idx] == m) straggler = true;
    }
    row["straggler"] = util::Json(straggler);
    shard_rows.push_back(util::Json(std::move(row)));
  }
  if (!manifests.empty()) {
    o["spec_fingerprint"] = util::Json(util::u64_to_hex(manifests.front().spec_fingerprint));
    o["shard_count"] = util::Json(static_cast<double>(manifests.size()));
    o["total_shards"] = util::Json(static_cast<double>(manifests.front().total_shards));
  }
  o["plans"] = util::Json(static_cast<double>(plans));
  o["records"] = util::Json(static_cast<double>(records));
  o["pings"] = util::Json(static_cast<double>(pings));
  o["bytes_encoded"] = util::Json(static_cast<double>(bytes));
  o["wall_ms_max"] = util::Json(max_wall);
  o["wall_ms_sum"] = util::Json(sum_wall);
  o["stragglers"] = util::Json(static_cast<double>(stragglers.size()));
  o["shards"] = util::Json(std::move(shard_rows));
  return util::Json(std::move(o));
}

std::string shard_stats_table(const std::vector<RunManifest>& manifests) {
  std::vector<const RunManifest*> ordered;
  ordered.reserve(manifests.size());
  for (const RunManifest& m : manifests) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const RunManifest* a, const RunManifest* b) { return a->shard_k < b->shard_k; });
  const std::vector<std::size_t> stragglers = straggler_shards(manifests);
  std::string out = "shard   status   plans  wall_ms    plans/s  threads\n";
  for (const RunManifest* m : ordered) {
    bool straggler = false;
    for (const std::size_t idx : stragglers) {
      if (&manifests[idx] == m) straggler = true;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%2zu/%-2zu  %-7s %6zu  %9.1f  %7.1f  %7d%s\n",
                  m->shard_k, m->shard_n, m->status.c_str(), m->plans, m->wall_ms,
                  m->wall_ms > 0 ? static_cast<double>(m->plans) / (m->wall_ms / 1000.0) : 0.0,
                  m->threads, straggler ? "  << straggler (>2x median wall)" : "");
    out += line;
  }
  return out;
}

// --------------------------------------------------------------------------
// RuntimeTelemetry
// --------------------------------------------------------------------------

RuntimeTelemetry::RuntimeTelemetry(ClockNs now_ns, ClockMs unix_ms)
    : now_ns_(now_ns), unix_ms_(unix_ms) {}

void RuntimeTelemetry::describe_run(std::uint64_t spec_fingerprint, std::size_t shard_k,
                                    std::size_t shard_n, int threads) {
  spec_fingerprint_ = spec_fingerprint;
  shard_k_ = shard_k;
  shard_n_ = shard_n;
  threads_ = threads;
}

void RuntimeTelemetry::begin_run(std::uint64_t plans_total) {
  plans_total_ = plans_total;
  started_unix_ms_ = unix_ms_();
  started_ns_ = now_ns_();
}

void RuntimeTelemetry::note_plan_started() {
  plans_started_.fetch_add(1, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_plan_done(std::uint64_t busy_ns) {
  plans_done_.fetch_add(1, std::memory_order_relaxed);
  worker_busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_sink_items(std::uint64_t items, std::uint64_t busy_ns) {
  sink_items_.fetch_add(items, std::memory_order_relaxed);
  collector_busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_collector_wake(std::uint64_t ready, std::uint64_t wait_ns) {
  if (ready == 0) collector_idle_wakes_.fetch_add(1, std::memory_order_relaxed);
  collector_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
  // The collector takes the whole list on each wake, so the list only grows
  // between wakes and its high water is the largest batch taken. One writer,
  // so a relaxed load-then-store is enough.
  if (ready > ready_high_water_.load(std::memory_order_relaxed)) {
    ready_high_water_.store(ready, std::memory_order_relaxed);
  }
}

void RuntimeTelemetry::note_records(std::uint64_t n) {
  records_.fetch_add(n, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_bytes_encoded(std::uint64_t n) {
  bytes_encoded_.fetch_add(n, std::memory_order_relaxed);
}

RuntimeHeartbeat RuntimeTelemetry::snapshot_runtime(std::string status) const {
  RuntimeHeartbeat h;
  h.status = std::move(status);
  h.spec_fingerprint = spec_fingerprint_;
  h.shard_k = shard_k_;
  h.shard_n = shard_n_;
  h.threads = threads_;
  h.started_unix_ms = started_unix_ms_;
  h.updated_unix_ms = std::max(unix_ms_(), started_unix_ms_);
  const std::uint64_t now = now_ns_();
  h.elapsed_ms =
      now > started_ns_ ? static_cast<double>(now - started_ns_) / 1e6 : 0.0;
  const std::uint64_t started = plans_started_.load(std::memory_order_relaxed);
  const std::uint64_t done = plans_done_.load(std::memory_order_relaxed);
  h.plans_total = plans_total_;
  h.plans_done = std::min(done, plans_total_);
  const std::uint64_t sunk = sink_items_.load(std::memory_order_relaxed);
  h.collector_lag = h.plans_done > sunk ? h.plans_done - sunk : 0;
  h.records = records_.load(std::memory_order_relaxed);
  h.bytes_encoded = bytes_encoded_.load(std::memory_order_relaxed);
  h.completion = plans_total_ > 0
                     ? static_cast<double>(h.plans_done) / static_cast<double>(plans_total_)
                     : 0.0;
  h.plans_per_sec =
      h.elapsed_ms > 0 ? static_cast<double>(h.plans_done) / (h.elapsed_ms / 1000.0) : 0.0;
  h.eta_ms = (h.completion > 0 && h.completion < 1.0)
                 ? h.elapsed_ms * (1.0 - h.completion) / h.completion
                 : 0.0;

  RuntimeStageSnapshot expand;
  expand.stage = "expand";
  expand.items_in = plans_total_;
  expand.items_out = started;

  RuntimeStageSnapshot simulate;
  simulate.stage = "simulate";
  simulate.items_in = started;
  simulate.items_out = done;
  simulate.busy_ns = worker_busy_ns_.load(std::memory_order_relaxed);

  RuntimeStageSnapshot collect;
  collect.stage = "collect";
  collect.items_in = done;
  collect.items_out = sunk;
  collect.busy_ns = collector_busy_ns_.load(std::memory_order_relaxed);
  collect.stall_spins = collector_idle_wakes_.load(std::memory_order_relaxed);
  collect.stall_ns = collector_wait_ns_.load(std::memory_order_relaxed);
  collect.max_queue_depth = ready_high_water_.load(std::memory_order_relaxed);

  h.stages = {std::move(expand), std::move(simulate), std::move(collect)};
  return h;
}

// --------------------------------------------------------------------------
// HeartbeatWriter
// --------------------------------------------------------------------------

HeartbeatWriter::HeartbeatWriter(std::string path, const RuntimeTelemetry& telemetry,
                                 std::uint64_t interval_ms)
    : path_(std::move(path)), telemetry_(telemetry), interval_ns_(interval_ms * 1000000ull) {}

Result<void> HeartbeatWriter::emit_heartbeat(std::string status) {
  const RuntimeHeartbeat h = telemetry_.snapshot_runtime(std::move(status));
  last_write_ns_ = telemetry_.clock_now_ns();
  return util::write_file_atomic(path_, h.heartbeat_json().dump(2) + "\n");
}

void HeartbeatWriter::write_update() {
  const std::uint64_t now = telemetry_.clock_now_ns();
  if (last_write_ns_ != 0 && now - last_write_ns_ < interval_ns_) return;
  // Telemetry must never fail the measurement: a transient heartbeat I/O
  // error is dropped, the next interval retries.
  (void)emit_heartbeat(last_write_ns_ == 0 ? "starting" : "running");
}

Result<void> HeartbeatWriter::write_final(std::string_view status) {
  return emit_heartbeat(std::string(status));
}

}  // namespace ednsm::obs
