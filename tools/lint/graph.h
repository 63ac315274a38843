// Pass 2 of the ednsm_lint analyzer: the approximate intraproject call graph,
// plus the determinism taint dataflow that runs on top of it (pass 3's
// flagship rule).
//
// Edges are resolved by unqualified name against the symbol index, preferring
// same-file, then same-module definitions, then any definition in the scanned
// set. That is deliberately approximate — no overload resolution, no virtual
// dispatch — but it is conservative in the direction that matters: a taint
// path reported here names real functions whose bodies really contain the
// source token and the sink call.
#pragma once

#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/lint.h"

namespace ednsm::lint {

struct CallSite {
  int callee = -1;  // function id in SymbolIndex::functions
  int line = 0;     // line of the call in the caller's file
};

struct CallGraph {
  std::vector<std::vector<CallSite>> calls;  // per function id, sorted by line
  std::vector<std::vector<int>> callers;     // reverse adjacency, sorted ids
};

[[nodiscard]] CallGraph build_call_graph(const SymbolIndex& index);

// A nondeterminism source site: a token whose value differs across runs.
// `base_rule` names the token rule that also polices the site (suppressing
// the base rule at the source line suppresses taint from it too — the
// suppression lives at the true origin, once).
struct TaintSource {
  int file = -1;
  std::size_t pos = 0;
  int line = 0;
  std::string desc;       // human-readable, e.g. "system_clock::now()"
  std::string base_rule;  // "" when only the taint rule covers this token
};

// Scan the index for the built-in source tokens: wall-clock / ambient
// randomness (outside src/netsim, which owns the seeded clock),
// std::this_thread::get_id(), and pointer-to-integer reinterpret_casts.
// Sites suppressed for their base rule or for determinism-taint are dropped.
[[nodiscard]] std::vector<TaintSource> collect_taint_sources(const SymbolIndex& index);

// The determinism taint rule: for every source site, walk caller edges from
// the enclosing function; if a serialization sink (to_json / to_binary /
// to_prometheus / write_json / write_chrome_json / write_jsonl / shard_io
// writers) is reachable, report the full source-to-sink call path at the
// source line.
// `extra_sources` lets the driver feed in sites its own rules discovered
// (unordered-container iteration), already suppression-filtered.
void check_determinism_taint(const SymbolIndex& index, const CallGraph& graph,
                             const std::vector<TaintSource>& extra_sources,
                             std::vector<Diagnostic>& out);

// The clock-domain boundary rule (obs-domain-separation): every function
// defined in a runtime-telemetry file (path contains "obs/runtime" — the one
// place wall-clock reads are sanctioned) is a source; walking caller edges
// from it must never reach a deterministic serialization sink. to_prometheus
// is the one allowed sink (runtime gauges are exposed for scraping, outside
// the deterministic output contract); sinks defined inside the runtime
// domain itself (the heartbeat/manifest writers) are likewise fine. Reported
// at the sink's definition: the sink is the function that now depends on
// wall-clock state.
void check_obs_domain_separation(const SymbolIndex& index, const CallGraph& graph,
                                 std::vector<Diagnostic>& out);

// The innermost defined function whose body contains `pos` in `file`
// (-1 when the offset is at namespace scope). Exposed for tests.
[[nodiscard]] int enclosing_function(const SymbolIndex& index, int file, std::size_t pos);

// Whether `f` is a serialization sink for the taint rule. Exposed for tests.
[[nodiscard]] bool is_taint_sink(const SymbolIndex& index, const FunctionDef& f);

}  // namespace ednsm::lint
