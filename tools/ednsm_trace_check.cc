// ednsm-trace-check: structural validator for the Chrome trace-event JSON
// that `ednsm_measure --trace` emits. Run in CI after a traced campaign so a
// schema regression (missing key, wrong phase letter, negative timestamp)
// fails the build instead of silently producing a file chrome://tracing
// rejects. Self-contained: only the repo's own JSON parser, no external
// tooling.
//
// Checks:
//   - the file is one JSON object with a "traceEvents" array
//   - every event has "ph" in {M, X, i}, a string "name", numeric pid/tid
//   - "M" metadata events carry args.name (process_name / thread_name)
//   - "X" complete events have numeric ts >= 0, dur >= 0, and a string "cat"
//   - "i" instant events have numeric ts >= 0, a string "cat", and "s"
//   - otherData.dropped_events, when present, is a non-negative number
//   - with --nested: complete events on one (pid, tid) must strictly nest —
//     a span that starts inside another span must end no later than it (a
//     child outliving its parent means the parent closed before the child)
//
// --nested is opt-in because it only holds for traces whose spans follow a
// call-stack discipline. Campaign traces put every concurrent query of a
// round on one simulated thread, so their handshake/exchange intervals
// legitimately overlap without a parent/child relation.
//
// A second mode validates the runtime-telemetry artifacts (the orchestrator
// contract for sharded campaigns):
//
//   ednsm_trace_check --heartbeat heartbeat.json
//   ednsm_trace_check --heartbeat manifest.json
//
// accepts exactly the documents `ednsm_measure --progress-file/--manifest`
// writes — the file's "schema" field selects ednsm-heartbeat or
// ednsm-run-manifest, and the strict parsers in obs/runtime enforce every
// field (status enums, completion in [0,1], plans_done <= plans_total,
// monotone timestamps, typed stage entries). Malformed fixtures under
// tests/trace_fixtures/ keep this surface tested.
//
// Usage: ednsm_trace_check trace.json [--min-events N] [--nested]
//        ednsm_trace_check --heartbeat file.json
// Exit codes: 0 valid, 1 bad usage, 2 validation failure, 3 I/O error.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/runtime.h"
#include "util/fs.h"
#include "util/json.h"

using namespace ednsm;

namespace {

bool fail(std::size_t index, const char* what) {
  std::fprintf(stderr, "trace-check: event %zu: %s\n", index, what);
  return false;
}

bool check_event(const util::Json& e, std::size_t index) {
  if (!e.is_object()) return fail(index, "not an object");
  if (!e.at("ph").is_string()) return fail(index, "missing phase \"ph\"");
  if (!e.at("name").is_string()) return fail(index, "missing \"name\"");
  if (!e.at("pid").is_number() || !e.at("tid").is_number()) {
    return fail(index, "missing numeric pid/tid");
  }
  const std::string& ph = e.at("ph").as_string();
  if (ph == "M") {
    if (!e.at("args").at("name").is_string()) return fail(index, "metadata without args.name");
    return true;
  }
  if (ph != "X" && ph != "i") return fail(index, "unknown phase (expect M, X, or i)");
  if (!e.at("ts").is_number() || e.at("ts").as_number() < 0) {
    return fail(index, "missing or negative \"ts\"");
  }
  if (!e.at("cat").is_string()) return fail(index, "missing \"cat\"");
  if (ph == "X" && (!e.at("dur").is_number() || e.at("dur").as_number() < 0)) {
    return fail(index, "complete event without non-negative \"dur\"");
  }
  if (ph == "i" && !e.at("s").is_string()) return fail(index, "instant event without \"s\"");
  return true;
}

// --nested: complete events on one (pid, tid) must form a proper span tree.
// Sweep each thread's spans in start order (longest first on ties, so a
// parent precedes the children sharing its start) with a stack of open span
// end times; a span that starts inside an open span must close no later.
bool check_nesting(const util::JsonArray& events) {
  struct Span {
    double ts = 0;
    double dur = 0;
    std::size_t index = 0;
  };
  std::map<std::pair<double, double>, std::vector<Span>> threads;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events[i];
    if (e.at("ph").as_string() != "X") continue;
    threads[{e.at("pid").as_number(), e.at("tid").as_number()}].push_back(
        {e.at("ts").as_number(), e.at("dur").as_number(), i});
  }
  for (auto& [thread, spans] : threads) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      if (a.dur != b.dur) return a.dur > b.dur;
      return a.index < b.index;
    });
    std::vector<double> open;  // end times of enclosing spans, outermost first
    for (const Span& s : spans) {
      while (!open.empty() && open.back() <= s.ts) open.pop_back();
      if (!open.empty() && s.ts + s.dur > open.back()) {
        return fail(s.index, "span outlives its enclosing span (parent closed before child)");
      }
      open.push_back(s.ts + s.dur);
    }
  }
  return true;
}

// --heartbeat: validate one runtime-telemetry artifact. The schema field
// routes to the matching strict parser; anything else is a failure.
int check_heartbeat_file(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) {
    std::fprintf(stderr, "trace-check: %s\n", text.error().c_str());
    return 3;
  }
  auto json = util::Json::parse(text.value());
  if (!json) {
    std::fprintf(stderr, "trace-check: not valid JSON: %s\n", json.error().c_str());
    return 2;
  }
  const util::Json& root = json.value();
  if (!root.is_object() || !root.at("schema").is_string()) {
    std::fprintf(stderr, "trace-check: missing \"schema\" field\n");
    return 2;
  }
  const std::string& schema = root.at("schema").as_string();
  if (schema == obs::RuntimeHeartbeat::kSchemaName) {
    auto parsed = obs::RuntimeHeartbeat::heartbeat_from_json(root);
    if (!parsed) {
      std::fprintf(stderr, "trace-check: invalid heartbeat: %s\n", parsed.error().c_str());
      return 2;
    }
    std::printf("trace-check: ok — heartbeat, shard %zu/%zu, status %s, %.1f%% complete\n",
                parsed.value().shard_k, parsed.value().shard_n, parsed.value().status.c_str(),
                parsed.value().completion * 100.0);
    return 0;
  }
  if (schema == obs::RunManifest::kSchemaName) {
    auto parsed = obs::RunManifest::manifest_from_json(root);
    if (!parsed) {
      std::fprintf(stderr, "trace-check: invalid run manifest: %s\n", parsed.error().c_str());
      return 2;
    }
    std::printf("trace-check: ok — run manifest, shard %zu/%zu, status %s, %zu plans\n",
                parsed.value().shard_k, parsed.value().shard_n, parsed.value().status.c_str(),
                parsed.value().plans);
    return 0;
  }
  std::fprintf(stderr, "trace-check: unknown schema \"%s\"\n", schema.c_str());
  return 2;
}

constexpr cli::Flag kFlags[] = {
    {"min-events", "N", "fail below N payload events (default 0)", cli::Type::Int, 0},
    {"nested", "", "also require complete events to nest per thread"},
    {"heartbeat", "FILE", "validate a heartbeat or run manifest instead of a trace"},
};
constexpr cli::Command kCli{"ednsm_trace_check", "[TRACE.json]", kFlags};

int tool_main(const cli::Args& args) {
  const std::vector<std::string>& traces = args.positionals();
  if (const std::string* heartbeat = args.get("heartbeat")) {
    if (!traces.empty() || args.has("min-events") || args.has("nested")) {
      return cli::usage_error(kCli, "--heartbeat takes no trace file, --min-events or --nested");
    }
    return check_heartbeat_file(*heartbeat);
  }
  if (traces.size() != 1) return cli::usage_error(kCli, "expected one trace file");
  const int min_events = args.integer("min-events", 0);
  const bool nested = args.has("nested");

  auto text = util::read_file(traces.front());
  if (!text) {
    std::fprintf(stderr, "trace-check: %s\n", text.error().c_str());
    return 3;
  }
  auto json = util::Json::parse(text.value());
  if (!json) {
    std::fprintf(stderr, "trace-check: not valid JSON: %s\n", json.error().c_str());
    return 2;
  }
  const util::Json& root = json.value();
  if (!root.is_object() || !root.at("traceEvents").is_array()) {
    std::fprintf(stderr, "trace-check: missing traceEvents array\n");
    return 2;
  }

  const util::JsonArray& events = root.at("traceEvents").as_array();
  std::size_t metadata = 0;
  std::size_t payload = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!check_event(events[i], i)) return 2;
    if (events[i].at("ph").as_string() == "M") {
      ++metadata;
    } else {
      ++payload;
    }
  }

  if (nested && !check_nesting(events)) return 2;

  const util::Json& dropped = root.at("otherData").at("dropped_events");
  if (!dropped.is_null() && (!dropped.is_number() || dropped.as_number() < 0)) {
    std::fprintf(stderr, "trace-check: otherData.dropped_events is not a non-negative number\n");
    return 2;
  }

  if (payload < static_cast<std::size_t>(min_events)) {
    std::fprintf(stderr, "trace-check: %zu payload events, expected at least %d\n", payload,
                 min_events);
    return 2;
  }
  std::printf("trace-check: ok — %zu payload events, %zu metadata records\n", payload, metadata);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(kCli, argc, argv, tool_main); }
