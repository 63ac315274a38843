// Tests for the ednsm_lint analyzer engine itself: the pass-1 symbol index,
// the pass-2 call graph, the determinism taint dataflow, the module-layering
// DAG + include-cycle rules, and the committed-baseline mechanism. Fixture
// rule coverage lives in lint_test.cc; this file exercises the machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/baseline.h"
#include "lint/graph.h"
#include "lint/index.h"
#include "lint/layers.h"
#include "lint/lint.h"

namespace {

using ednsm::lint::Diagnostic;
using ednsm::lint::SourceFile;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

SourceFile fixture(const std::string& name) {
  return SourceFile{name, read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/" + name)};
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += ednsm::lint::format(d) + "\n";
  return out;
}

// A tiny layers config used by the synthetic layering tests.
constexpr const char* kToyLayers = R"(# toy DAG
util:
web: util
)";

// ---------------------------------------------------------------------------
// Pass 1: the symbol index.
// ---------------------------------------------------------------------------

TEST(SymbolIndex, CollectsFunctionsAndPairsDefinitions) {
  const SourceFile f{"src/core/sample.cc", R"cc(
namespace ednsm::core {

int free_helper(int x);  // declaration

int free_helper(int x) { return x + 1; }

struct Widget {
  int inline_method() const { return 1; }
  int outline_method() const;
};

int Widget::outline_method() const { return free_helper(2); }

}  // namespace ednsm::core
)cc"};
  const auto index = ednsm::lint::build_index({f});

  // free_helper: one declaration + one definition, both indexed.
  int decls = 0;
  int defs = 0;
  for (const auto& fn : index.functions) {
    if (fn.name != "free_helper") continue;
    (fn.defined ? defs : decls) += 1;
    EXPECT_EQ(fn.ns, "ednsm::core");
  }
  EXPECT_EQ(decls, 1);
  EXPECT_EQ(defs, 1);

  // Inline method adopts the enclosing struct; out-of-line keeps the
  // qualifier.
  bool saw_inline = false;
  bool saw_outline = false;
  for (const auto& fn : index.functions) {
    if (fn.name == "inline_method" && fn.defined) {
      EXPECT_EQ(fn.class_name, "Widget");
      saw_inline = true;
    }
    if (fn.name == "outline_method" && fn.defined) {
      EXPECT_EQ(fn.class_name, "Widget");
      EXPECT_EQ(fn.qualified(), "Widget::outline_method");
      saw_outline = true;
    }
  }
  EXPECT_TRUE(saw_inline);
  EXPECT_TRUE(saw_outline);
  EXPECT_EQ(index.definitions_named("free_helper").size(), 1u);
}

TEST(SymbolIndex, CollectsQuotedIncludesAndModules) {
  const SourceFile f{"src/transport/udp.cc", R"cc(
#include "transport/udp.h"

#include <vector>

#include "dns/wire.h"
#include "netsim/event_queue.h"
)cc"};
  const auto index = ednsm::lint::build_index({f});
  ASSERT_EQ(index.includes.size(), 1u);
  std::vector<std::string> targets;
  for (const auto& inc : index.includes[0]) targets.push_back(inc.target);
  EXPECT_EQ(targets, (std::vector<std::string>{"transport/udp.h", "dns/wire.h",
                                               "netsim/event_queue.h"}));
  EXPECT_EQ(index.modules[0], "transport");
  EXPECT_EQ(ednsm::lint::module_of("/abs/path/repo/src/core/spec.cc"), "core");
  EXPECT_EQ(ednsm::lint::module_of("tools/lint/lint.cc"), "");
}

// ---------------------------------------------------------------------------
// Pass 2: the call graph.
// ---------------------------------------------------------------------------

TEST(CallGraph, ResolvesEdgesAndReverseAdjacency) {
  const SourceFile f{"src/core/sample.cc", R"cc(
namespace ednsm::core {
int leaf() { return 1; }
int mid() { return leaf() + leaf(); }
int top() { return mid(); }
}  // namespace ednsm::core
)cc"};
  const auto index = ednsm::lint::build_index({f});
  const auto graph = ednsm::lint::build_call_graph(index);

  auto id_of = [&](const std::string& name) {
    const auto ids = index.definitions_named(name);
    EXPECT_EQ(ids.size(), 1u) << name;
    return ids.at(0);
  };
  const int leaf = id_of("leaf");
  const int mid = id_of("mid");
  const int top = id_of("top");

  // mid -> leaf (deduped to one edge), top -> mid.
  ASSERT_EQ(graph.calls[static_cast<std::size_t>(mid)].size(), 1u);
  EXPECT_EQ(graph.calls[static_cast<std::size_t>(mid)][0].callee, leaf);
  ASSERT_EQ(graph.calls[static_cast<std::size_t>(top)].size(), 1u);
  EXPECT_EQ(graph.calls[static_cast<std::size_t>(top)][0].callee, mid);
  EXPECT_EQ(graph.callers[static_cast<std::size_t>(leaf)],
            (std::vector<int>{mid}));
  EXPECT_EQ(graph.callers[static_cast<std::size_t>(mid)],
            (std::vector<int>{top}));
}

TEST(CallGraph, EnclosingFunctionFindsInnermostBody) {
  const SourceFile f{"a.cc", R"cc(
int outer() {
  return 42;
}
)cc"};
  const auto index = ednsm::lint::build_index({f});
  const auto pos = f.content.find("42");
  const int fn = ednsm::lint::enclosing_function(index, 0, pos);
  ASSERT_GE(fn, 0);
  EXPECT_EQ(index.functions[static_cast<std::size_t>(fn)].name, "outer");
  EXPECT_LT(ednsm::lint::enclosing_function(index, 0, 0), 0);
}

// ---------------------------------------------------------------------------
// Pass 3: determinism taint.
// ---------------------------------------------------------------------------

TEST(Taint, DirectSourceInSink) {
  const auto diags = ednsm::lint::run_lint({fixture("taint_direct_bad.cc")});
  const auto it = std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "determinism-taint";
  });
  ASSERT_NE(it, diags.end()) << dump(diags);
  EXPECT_EQ(it->trace, (std::vector<std::string>{"Snapshot::to_json"}));
  EXPECT_EQ(it->key, "Snapshot::to_json->Snapshot::to_json");
}

TEST(Taint, OneHopHelperPathIsReported) {
  const auto diags = ednsm::lint::run_lint({fixture("taint_one_hop_bad.cc")});
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  const Diagnostic& d = diags[0];
  EXPECT_EQ(d.rule, "determinism-taint");
  EXPECT_EQ(d.trace, (std::vector<std::string>{"same_lane", "Record::to_json"}));
  EXPECT_NE(d.message.find("same_lane"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("Record::to_json"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("get_id"), std::string::npos) << d.message;
}

TEST(Taint, StreamedWriterIsASink) {
  const auto diags = ednsm::lint::run_lint({fixture("taint_write_json_bad.cc")});
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  const Diagnostic& d = diags[0];
  EXPECT_EQ(d.rule, "determinism-taint");
  EXPECT_EQ(d.trace, (std::vector<std::string>{"lane_of_this_thread", "Record::write_json"}));
  EXPECT_NE(d.message.find("get_id"), std::string::npos) << d.message;
}

TEST(Taint, CrossFilePathLandsAtTheSource) {
  const auto diags = ednsm::lint::run_lint(
      {fixture("taint_cross_file_a.cc"), fixture("taint_cross_file_b.cc")});
  const auto it = std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "determinism-taint";
  });
  ASSERT_NE(it, diags.end()) << dump(diags);
  EXPECT_EQ(it->path, "taint_cross_file_b.cc");
  EXPECT_EQ(it->trace, (std::vector<std::string>{"wall_nonce", "Export::to_json"}));
}

TEST(Taint, SuppressionAtTheSourceSilencesTheWholePath) {
  const auto diags = ednsm::lint::run_lint({fixture("taint_allowed.cc")});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(Taint, SourceWithoutASinkIsNotATaintFinding) {
  // get_id feeding a plain accessor that nothing serializes: nothing for the
  // taint rule (thread identity used locally, e.g. for an assert, is legal).
  const SourceFile f{"a.cc", R"cc(
#include <thread>
inline bool on_some_lane() {
  return std::this_thread::get_id() == std::this_thread::get_id();
}
bool poll() { return on_some_lane(); }
)cc"};
  const auto diags = ednsm::lint::run_lint({f});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// ---------------------------------------------------------------------------
// Layering: config parsing and the arch rules.
// ---------------------------------------------------------------------------

TEST(Layers, ParsesAndValidates) {
  ednsm::lint::LayerConfig config;
  std::string error;
  ASSERT_TRUE(ednsm::lint::LayerConfig::parse(kToyLayers, &config, &error)) << error;
  EXPECT_EQ(config.deps.at("web"), (std::set<std::string>{"util"}));
  EXPECT_TRUE(config.deps.at("util").empty());

  EXPECT_FALSE(ednsm::lint::LayerConfig::parse("util util\n", &config, &error));
  EXPECT_FALSE(ednsm::lint::LayerConfig::parse("a: ghost\na:\n", &config, &error));
  EXPECT_FALSE(ednsm::lint::LayerConfig::parse("a: ghost\n", &config, &error));
  EXPECT_NE(error.find("undeclared"), std::string::npos) << error;
  EXPECT_FALSE(ednsm::lint::LayerConfig::parse("a: b\nb: a\n", &config, &error));
  EXPECT_NE(error.find("cycle"), std::string::npos) << error;
}

TEST(Layers, LegalEdgePassesIllegalEdgeFails) {
  ednsm::lint::Options options;
  options.layers_text = kToyLayers;

  // Legal: web -> util.
  const SourceFile legal{"src/web/page.cc", "#include \"util/strings.h\"\n"};
  EXPECT_TRUE(ednsm::lint::run_lint({legal}, options).empty());

  // Illegal: util -> web (the committed fixture, under a synthetic path).
  const SourceFile bad{"src/util/arch_layering_bad.cc",
                       read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/arch_layering_bad.cc")};
  const auto diags = ednsm::lint::run_lint({bad}, options);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "arch-layering");
  EXPECT_EQ(diags[0].key, "util->web");
}

TEST(Layers, UndeclaredModuleIsAFinding) {
  ednsm::lint::Options options;
  options.layers_text = kToyLayers;
  const SourceFile f{"src/mystery/new_thing.cc", "namespace ednsm::mystery {}\n"};
  const auto diags = ednsm::lint::run_lint({f}, options);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "arch-layering");
  EXPECT_NE(diags[0].message.find("not declared"), std::string::npos);
}

TEST(Layers, IncludeCycleFixtureIsRejected) {
  const auto diags = ednsm::lint::run_lint({fixture("cycle_a.h"), fixture("cycle_b.h")});
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "arch-include-cycle");
  EXPECT_NE(diags[0].message.find("cycle_a.h"), std::string::npos);
  EXPECT_NE(diags[0].message.find("cycle_b.h"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline mechanism.
// ---------------------------------------------------------------------------

TEST(Baseline, ParseApplyAndStaleDetection) {
  std::vector<ednsm::lint::BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(ednsm::lint::parse_baseline(
      R"({"findings": [
        {"rule": "arch-layering", "path": "src/netsim/event_queue.cc",
         "key": "netsim->obs", "reason": "impl-only tracer hook"},
        {"rule": "arch-layering", "path": "src/ghost/gone.cc",
         "key": "ghost->web", "reason": "stale on purpose"}
      ]})",
      &entries, &error))
      << error;
  ASSERT_EQ(entries.size(), 2u);

  Diagnostic covered;
  covered.path = "/abs/checkout/src/netsim/event_queue.cc";  // suffix match
  covered.rule = "arch-layering";
  covered.key = "netsim->obs";
  Diagnostic uncovered;
  uncovered.path = "src/core/spec.cc";
  uncovered.rule = "codec-parity";

  const auto result = ednsm::lint::apply_baseline({covered, uncovered}, entries);
  ASSERT_EQ(result.remaining.size(), 1u);
  EXPECT_EQ(result.remaining[0].rule, "codec-parity");
  EXPECT_EQ(result.suppressed, 1u);
  ASSERT_EQ(result.stale.size(), 1u);
  EXPECT_EQ(result.stale[0].key, "ghost->web");
}

TEST(Baseline, RejectsEntriesWithoutReason) {
  std::vector<ednsm::lint::BaselineEntry> entries;
  std::string error;
  EXPECT_FALSE(ednsm::lint::parse_baseline(
      R"({"findings": [{"rule": "r", "path": "p", "key": ""}]})", &entries, &error));
  EXPECT_NE(error.find("reason"), std::string::npos) << error;
}

TEST(Baseline, WriteRoundTripsThroughParse) {
  Diagnostic d;
  d.rule = "arch-layering";
  d.path = "src/a/b.cc";
  d.key = "a->b";
  const std::string text = ednsm::lint::baseline_to_json({d, d});
  std::vector<ednsm::lint::BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(ednsm::lint::parse_baseline(text, &entries, &error)) << error << "\n" << text;
  ASSERT_EQ(entries.size(), 1u);  // identity-deduped
  EXPECT_EQ(entries[0].rule, "arch-layering");
  EXPECT_EQ(entries[0].key, "a->b");
}

TEST(Report, JsonFormatIsParseableShape) {
  Diagnostic d;
  d.rule = "determinism-taint";
  d.path = "src/x/y.cc";
  d.line = 7;
  d.key = "f->g";
  d.trace = {"f", "g"};
  d.message = "quote \" and backslash \\ survive";
  const std::string json = ednsm::lint::format_json({d});
  EXPECT_NE(json.find("\"rule\": \"determinism-taint\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace\": [\"f\", \"g\"]"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos) << json;
  EXPECT_EQ(ednsm::lint::format_json({}), "{\"findings\": []}\n");
}

// ---------------------------------------------------------------------------
// Tree-level mutation checks over the real sources: the acceptance bar for
// the new passes staying alive.
// ---------------------------------------------------------------------------

std::vector<SourceFile> load_repo_tree() {
  std::vector<std::string> roots;
  for (const std::string_view root : ednsm::lint::kTreeRoots) {
    roots.push_back(std::string(EDNSM_SOURCE_DIR) + "/" + std::string(root));
  }
  return ednsm::lint::load_tree(roots);
}

ednsm::lint::Options repo_options() {
  ednsm::lint::Options options;
  options.layers_text =
      read_file(std::string(EDNSM_SOURCE_DIR) + "/tools/lint/layers.conf");
  return options;
}

// The committed tree conforms to the committed DAG, modulo exactly the
// committed baseline (which must have no stale entries).
TEST(LintTreeArch, CleanTreeConformsToLayersConf) {
  auto diags = ednsm::lint::run_lint(load_repo_tree(), repo_options());
  std::vector<ednsm::lint::BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(ednsm::lint::parse_baseline(
      read_file(std::string(EDNSM_SOURCE_DIR) + "/tools/lint/baseline.json"), &entries, &error))
      << error;
  const auto result = ednsm::lint::apply_baseline(std::move(diags), entries);
  EXPECT_TRUE(result.remaining.empty()) << dump(result.remaining);
  EXPECT_TRUE(result.stale.empty());
  EXPECT_EQ(result.suppressed, entries.size());
}

// Routing a wall-clock read through a helper into a JSON writer must trip
// determinism-taint with the full helper -> sink path — even though the
// helper itself could have been buried far from any serialization code.
TEST(LintTreeArch, WallclockViaHelperIntoToJsonFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("core/spec.cc")) continue;
    f.content +=
        "\n#include <chrono>\n"
        "namespace ednsm::core {\n"
        "static double debug_stamp_ms() {\n"
        "  return static_cast<double>(\n"
        "      std::chrono::system_clock::now().time_since_epoch().count());\n"
        "}\n"
        "static double debug_stamp_field() { return debug_stamp_ms(); }\n"
        "Json to_json() {\n"
        "  JsonObject o;\n"
        "  o[\"stamped_at\"] = debug_stamp_field();\n"
        "  return Json(std::move(o));\n"
        "}\n"
        "}  // namespace ednsm::core\n";
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files, repo_options());
  const auto it = std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "determinism-taint" &&
           d.message.find("debug_stamp_ms") != std::string::npos;
  });
  ASSERT_NE(it, diags.end()) << dump(diags);
  // The full two-hop path is named, so the suppression can go at the origin.
  EXPECT_EQ(it->trace,
            (std::vector<std::string>{"debug_stamp_ms", "debug_stamp_field", "to_json"}));
}

// Inverting a layer edge in the real tree (a bottom-layer util file reaching
// into web/) must trip arch-layering.
TEST(LintTreeArch, InvertedLayerEdgeFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("src/util/strings.cc")) continue;
    f.content = "#include \"web/dashboard.h\"\n" + f.content;
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files, repo_options());
  const auto it = std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "arch-layering" && d.key == "util->web";
  });
  ASSERT_NE(it, diags.end()) << dump(diags);
  EXPECT_TRUE(it->path.ends_with("src/util/strings.cc")) << it->path;
}

// A helper that serializes a field on behalf of to_json counts as a codec
// reference: the upgraded codec-parity pass must NOT flag fields written
// through one module-local helper hop.
TEST(LintTreeArch, CodecParityUnderstandsHelperSerialization) {
  const SourceFile f{"src/core/helper_codec.cc", R"cc(
namespace ednsm::core {

struct Blob;
void write_extras(int& sink, const Blob& b);

struct Blob {
  int plain = 0;
  int via_helper = 0;
  void to_json(int& sink) const {
    sink = plain;
    write_extras(sink, *this);
  }
  void from_json(int v) {
    plain = v;
    via_helper = v;
  }
};

void write_extras(int& sink, const Blob& b) { sink += b.via_helper; }

}  // namespace ednsm::core
)cc"};
  const auto diags = ednsm::lint::run_lint({f});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// ---------------------------------------------------------------------------
// Pass 3: hygiene-dead-function.
// ---------------------------------------------------------------------------

std::vector<Diagnostic> dead_functions(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> out;
  for (Diagnostic& d : ednsm::lint::run_lint(files)) {
    if (d.rule == "hygiene-dead-function") out.push_back(std::move(d));
  }
  return out;
}

// A function passed only as a value (a clock handed to a constructor) is
// used: the name occurs outside its declaration and definition.
TEST(DeadFunction, FunctionPassedAsValueIsUsed) {
  const SourceFile h{"src/obs/clock.h", R"cc(
#pragma once
namespace ednsm::obs {
unsigned long runtime_now_ns();
class Telemetry {
 public:
  explicit Telemetry(unsigned long (*clock)());
};
}  // namespace ednsm::obs
)cc"};
  const SourceFile cc{"src/obs/clock.cc", R"cc(
namespace ednsm::obs {
unsigned long runtime_now_ns() { return 1; }
Telemetry::Telemetry(unsigned long (*clock)()) { (void)clock; }
}  // namespace ednsm::obs
)cc"};
  const SourceFile tool{"tools/watch.cc", R"cc(
int main() {
  ednsm::obs::Telemetry telemetry(&ednsm::obs::runtime_now_ns);
  return 0;
}
)cc"};
  const auto diags = dead_functions({h, cc, tool});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// `Cls::fn(x);` inside a body is a call, not a declaration of Cls::fn, so it
// counts as a use.
TEST(DeadFunction, QualifiedCallStatementIsAUse) {
  const SourceFile h{"src/obs/manifest.h", R"cc(
#pragma once
namespace ednsm::obs {
struct RunManifest {
  static int manifest_load(int text);
};
}  // namespace ednsm::obs
)cc"};
  const SourceFile cc{"src/obs/manifest.cc", R"cc(
namespace ednsm::obs {
int RunManifest::manifest_load(int text) { return text; }
}  // namespace ednsm::obs
)cc"};
  const SourceFile tool{"tools/check.cc", R"cc(
namespace ednsm::obs {
void check(int text) {
  RunManifest::manifest_load(text);
}
}  // namespace ednsm::obs
)cc"};
  const std::vector<SourceFile> files = {h, cc, tool};
  const auto diags = dead_functions(files);
  EXPECT_TRUE(diags.empty()) << dump(diags);
  const auto index = ednsm::lint::build_index(files);
  for (const auto& fn : index.functions) {
    if (fn.name == "manifest_load") {
      EXPECT_NE(fn.file, 2) << "the call statement was indexed as a declaration";
    }
  }
}

// A member initializer `d = std::chrono::hours(8);` is a call, not a
// declaration of a function named `hours`.
TEST(DeadFunction, InitializerCallIsNotADeclaration) {
  const SourceFile h{"src/core/spec.h", R"cc(
#pragma once
#include <chrono>
namespace ednsm::core {
struct Spec {
  std::chrono::seconds round_interval = std::chrono::hours(8);
};
}  // namespace ednsm::core
)cc"};
  const std::vector<SourceFile> files = {h};
  const auto index = ednsm::lint::build_index(files);
  for (const auto& fn : index.functions) EXPECT_NE(fn.name, "hours") << fn.qualified();
  const auto diags = dead_functions(files);
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(DeadFunction, AllowedLineIsSilent) {
  const SourceFile h{"src/util/probe.h", R"cc(
#pragma once
namespace ednsm::util {
// ednsm-lint: allow(hygiene-dead-function) — Probe.Counts reads it.
int probe_count();
}  // namespace ednsm::util
)cc"};
  const auto diags = dead_functions({h});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(DeadFunction, ConstructorsDestructorsAndOperatorsAreExempt) {
  const SourceFile h{"src/util/widget.h", R"cc(
#pragma once
namespace ednsm::util {
class Widget {
 public:
  Widget();
  explicit Widget(int size);
  ~Widget();
  Widget& operator=(const Widget&);
  bool operator<(const Widget&) const;
  explicit operator bool() const;
};
}  // namespace ednsm::util
)cc"};
  const SourceFile cc{"src/util/widget.cc", R"cc(
namespace ednsm::util {
Widget::Widget() = default;
Widget::Widget(int size) { (void)size; }
Widget::~Widget() = default;
}  // namespace ednsm::util
)cc"};
  const auto diags = dead_functions({h, cc});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// Helpers local to a .cc file are the compiler's business
// (-Wunused-function), not this rule's.
TEST(DeadFunction, HelperLocalToSourceFileIsIgnored) {
  const SourceFile cc{"src/util/local.cc", R"cc(
namespace ednsm::util {
namespace {
int unused_local_helper(int x) { return x + 1; }
}  // namespace
}  // namespace ednsm::util
)cc"};
  const auto diags = dead_functions({cc});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// A declaration inside a `class` body pairs with its out-of-line `Cls::fn`
// definition, so a definition alone does not count as a use.
TEST(DeadFunction, ClassMethodUsedOnlyByItsDefinitionIsFlagged) {
  const SourceFile h{"src/report/table.h", R"cc(
#pragma once
#include <string>
namespace ednsm::report {
class Table {
 public:
  std::string to_text() const;
  std::string to_markdown() const;
};
}  // namespace ednsm::report
)cc"};
  const SourceFile cc{"src/report/table.cc", R"cc(
namespace ednsm::report {
std::string Table::to_text() const { return to_text_impl(); }
std::string Table::to_markdown() const { return "|"; }
}  // namespace ednsm::report
)cc"};
  const SourceFile tool{"tools/report.cc", R"cc(
std::string render(const ednsm::report::Table& t) { return t.to_text(); }
)cc"};
  const auto diags = dead_functions({h, cc, tool});
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].path, "src/report/table.h");
  EXPECT_EQ(diags[0].line, 8);
  EXPECT_NE(diags[0].message.find("Table::to_markdown"), std::string::npos) << diags[0].message;
}

// ---------------------------------------------------------------------------
// Pass 3: hygiene-dead-field.
// ---------------------------------------------------------------------------

std::vector<Diagnostic> dead_fields(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> out;
  for (Diagnostic& d : ednsm::lint::run_lint(files)) {
    if (d.rule == "hygiene-dead-field") out.push_back(std::move(d));
  }
  return out;
}

// A field written in one file and read in none is still named outside its
// declaration, so it counts as used; one named nowhere else is dead, even
// when the struct is only ever built by positional aggregate initialization.
TEST(DeadField, WrittenOrReadAnywhereIsUsed) {
  const SourceFile h{"src/geo/point.h", R"cc(
#pragma once
#include <string>
namespace ednsm::geo {
struct Site {
  std::string city;
  std::string country_code;
  double lat = 0;
};
}  // namespace ednsm::geo
)cc"};
  const SourceFile cc{"src/geo/point.cc", R"cc(
namespace ednsm::geo {
Site make() { Site s{"Chicago", "US", 41.9}; s.lat += 0.0; return s; }
}  // namespace ednsm::geo
)cc"};
  const SourceFile tool{"tools/where.cc", R"cc(
std::string where(const ednsm::geo::Site& s) { return s.city; }
)cc"};
  const auto diags = dead_fields({h, cc, tool});
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].line, 7);
  EXPECT_NE(diags[0].message.find("Site::country_code"), std::string::npos) << diags[0].message;
}

TEST(DeadField, AllowedLineIsSilent) {
  const SourceFile h{"src/util/probe.h", R"cc(
#pragma once
namespace ednsm::util {
struct Probe {
  // ednsm-lint: allow(hygiene-dead-field) — Probe.Counts reads it.
  int probe_count = 0;
};
}  // namespace ednsm::util
)cc"};
  const auto diags = dead_fields({h});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

}  // namespace
