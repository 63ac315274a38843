// ednsm_lint — project-invariant static analyzer for the ednsm tree.
//
// The compiler cannot see the invariants the reproduction's headline claims
// rest on: sharded campaigns must stay byte-identical for any --threads N,
// QueryTiming::phase_sum() <= total must hold additively through every codec,
// and every serialized field must survive a JSON round trip. This analyzer
// enforces those invariants as named, suppressible rules.
//
// It runs in three passes (DESIGN.md "Static analysis"):
//   1. index  — every translation unit parsed into a symbol index
//               (tools/lint/index.h): structs/fields, function definitions,
//               includes, module ownership.
//   2. graph  — approximate intraproject call graph (tools/lint/graph.h).
//   3. rules  — token rules plus the index/graph-aware checks: codec parity
//               (helper-function aware), determinism taint dataflow with
//               source-to-sink call paths, and the module-layering DAG from
//               tools/lint/layers.conf.
//
// Suppression: a comment `// ednsm-lint: allow(rule-id)` (or
// `allow(rule-a, rule-b)`) on the violating line or the line directly above
// silences the named rules for that line. Suppressions are expected to carry
// a rationale in the rest of the comment. Accepted legacy findings can also
// be carried in a committed baseline (tools/lint/baseline.json); see
// tools/lint/baseline.h.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "lint/index.h"

namespace ednsm::lint {

// One lint finding, attributed to a file:line and a stable rule ID.
struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
  // Stable, line-number-independent identity for baseline matching. Layering
  // findings use "from->to"; taint findings use "source_fn->sink_fn"; other
  // rules leave it empty (they baseline by rule+path alone).
  std::string key;
  // For determinism-taint: the source-to-sink call path (qualified function
  // names, source first). Empty for other rules.
  std::vector<std::string> trace;

  [[nodiscard]] bool operator==(const Diagnostic&) const = default;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

// The stable rule table (IDs + one-line summaries), in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

// Optional analyzer inputs beyond the file set.
struct Options {
  // Contents of a layers.conf file declaring the module dependency DAG.
  // Empty = the arch-layering rule is skipped (the include-cycle rule runs
  // regardless; it needs no configuration).
  std::string layers_text;
};

// Run every rule over the file set. Cross-file rules (codec parity, the call
// graph, layering) see the whole set at once, so callers should pass a
// complete tree, not one file at a time, when they want tree-level
// guarantees. Returned diagnostics are sorted by (path, line, rule) and
// exclude suppressed findings.
[[nodiscard]] std::vector<Diagnostic> run_lint(const std::vector<SourceFile>& files);
[[nodiscard]] std::vector<Diagnostic> run_lint(const std::vector<SourceFile>& files,
                                               const Options& options);

// The directories a tree-level run lints, relative to the repository root:
// the library and every program built on it, so that hygiene-dead-function
// sees every caller.
inline constexpr std::array<std::string_view, 5> kTreeRoots = {"src", "tools", "bench",
                                                               "examples", "perfbench"};

// The committed module DAG and accepted findings, relative to the repository
// root: what a tree-level run applies by default (ednsm_lint, ednsm_bench's
// lint lane).
inline constexpr std::string_view kLayersPath = "tools/lint/layers.conf";
inline constexpr std::string_view kBaselinePath = "tools/lint/baseline.json";

// Recursively collect *.h / *.hpp / *.cc / *.cpp under each root,
// lexicographically sorted for deterministic diagnostics.
[[nodiscard]] std::vector<SourceFile> load_tree(const std::vector<std::string>& roots);

// "path:line: error: [rule-id] message"
[[nodiscard]] std::string format(const Diagnostic& d);

// Machine-readable report: {"findings":[{rule,path,line,key,message,trace}]},
// keys sorted, one finding per line, trailing newline. Stable across runs.
[[nodiscard]] std::string format_json(const std::vector<Diagnostic>& diags);

}  // namespace ednsm::lint
