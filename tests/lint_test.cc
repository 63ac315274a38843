// ednsm_lint test suite: fixture-driven rule coverage plus tree-level
// guarantees. Three layers:
//   1. Every rule ID has at least one known-bad fixture that triggers it and
//      the suppression syntax silences it.
//   2. The real tree (lint::kTreeRoots) is lint-clean modulo the committed
//      baseline.
//   3. Mutation checks: deliberately removing a JSON codec field, or adding
//      an unsorted unordered_map emission, makes lint fail — the acceptance
//      bar for the codec-parity and determinism rules staying alive.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include "lint/baseline.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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

// Lint a single fixture in isolation under its on-disk name (the extension
// drives the header-only rules).
std::vector<Diagnostic> lint_fixture(const std::string& name) {
  const std::string path = std::string(EDNSM_LINT_FIXTURE_DIR) + "/" + name;
  return ednsm::lint::run_lint({SourceFile{name, read_file(path)}});
}

std::multiset<std::string> rule_ids(const std::vector<Diagnostic>& diags) {
  std::multiset<std::string> out;
  for (const Diagnostic& d : diags) out.insert(d.rule);
  return out;
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += ednsm::lint::format(d) + "\n";
  return out;
}

TEST(LintFixtures, UnorderedIterBad) {
  const auto diags = lint_fixture("unordered_iter_bad.cc");
  EXPECT_EQ(rule_ids(diags),
            (std::multiset<std::string>{"determinism-unordered-iter",
                                        "determinism-unordered-iter"}))
      << dump(diags);
}

TEST(LintFixtures, UnorderedIterSuppressed) {
  const auto diags = lint_fixture("unordered_iter_allowed.cc");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(LintFixtures, WallclockBad) {
  const auto diags = lint_fixture("wallclock_bad.cc");
  EXPECT_EQ(rule_ids(diags).count("determinism-wallclock"), 5u) << dump(diags);
  EXPECT_EQ(diags.size(), 5u) << dump(diags);
}

TEST(LintFixtures, PointerKeyBad) {
  const auto diags = lint_fixture("pointer_key_bad.h");
  EXPECT_EQ(rule_ids(diags),
            (std::multiset<std::string>{"determinism-pointer-key", "determinism-pointer-key"}))
      << dump(diags);
}

TEST(LintFixtures, CodecParityBad) {
  const auto diags = lint_fixture("codec_parity_bad.cc");
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "codec-parity");
  EXPECT_NE(diags[0].message.find("dropped_field"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[0].message.find("to_json"), std::string::npos) << diags[0].message;
}

TEST(LintFixtures, CodecParityClean) {
  const auto diags = lint_fixture("codec_parity_clean.cc");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(LintFixtures, PhaseSumBad) {
  const auto diags = lint_fixture("phase_sum_bad.h");
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "phase-sum");
  EXPECT_NE(diags[0].message.find("new_phase"), std::string::npos) << diags[0].message;
}

TEST(LintFixtures, PhaseSumMissingEntirely) {
  const auto diags = lint_fixture("phase_sum_missing.h");
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "phase-sum");
  EXPECT_NE(diags[0].message.find("QueryTiming"), std::string::npos) << diags[0].message;
}

TEST(LintFixtures, PragmaOnceBad) {
  const auto diags = lint_fixture("pragma_once_bad.h");
  EXPECT_EQ(rule_ids(diags), (std::multiset<std::string>{"hygiene-pragma-once"})) << dump(diags);
}

TEST(LintFixtures, UsingNamespaceBad) {
  const auto diags = lint_fixture("using_namespace_bad.h");
  EXPECT_EQ(rule_ids(diags), (std::multiset<std::string>{"hygiene-using-namespace"}))
      << dump(diags);
}

TEST(LintFixtures, NodiscardResultBad) {
  const auto diags = lint_fixture("nodiscard_bad.h");
  EXPECT_EQ(rule_ids(diags),
            (std::multiset<std::string>{"hygiene-nodiscard-result", "hygiene-nodiscard-result"}))
      << dump(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_TRUE(d.message.find("parse_widget") != std::string::npos ||
                d.message.find("decode") != std::string::npos)
        << d.message;
  }
}

TEST(LintFixtures, ObsSpanBalanceBad) {
  const auto diags = lint_fixture("obs_span_balance_bad.cc");
  EXPECT_EQ(rule_ids(diags), (std::multiset<std::string>{"obs-span-balance", "obs-span-balance"}))
      << dump(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_TRUE(d.message.find("begin_span") != std::string::npos ||
                d.message.find("end_span") != std::string::npos)
        << d.message;
  }
}

TEST(LintFixtures, ObsSpanBalanceSuppressed) {
  const auto diags = lint_fixture("obs_span_balance_allowed.cc");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// The rule only polices code outside src/obs — the tracer's own
// implementation (and SpanGuard, which pairs the calls) is exempt by path.
TEST(LintFixtures, ObsSpanBalanceExemptInsideObs) {
  const std::string path = std::string(EDNSM_LINT_FIXTURE_DIR) + "/obs_span_balance_bad.cc";
  const auto diags =
      ednsm::lint::run_lint({SourceFile{"src/obs/fake_tracer.cc", read_file(path)}});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(LintFixtures, RawThreadBad) {
  const auto diags = lint_fixture("raw_thread_bad.cc");
  EXPECT_EQ(rule_ids(diags),
            (std::multiset<std::string>{"concurrency-raw-thread", "concurrency-raw-thread",
                                        "concurrency-raw-thread"}))
      << dump(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.message.find("run_pipeline"), std::string::npos) << d.message;
  }
}

TEST(LintFixtures, RawThreadSuppressed) {
  const auto diags = lint_fixture("raw_thread_allowed.cc");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// The rule exempts only the campaign engine itself: the same violating code
// is clean there and still flagged under src/util.
TEST(LintFixtures, RawThreadExemptOnlyInsideEngine) {
  const std::string content =
      read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/raw_thread_bad.cc");
  const auto engine =
      ednsm::lint::run_lint({SourceFile{"src/core/parallel_campaign.cc", content}});
  EXPECT_TRUE(engine.empty()) << dump(engine);
  const auto util = ednsm::lint::run_lint({SourceFile{"src/util/thread_pool.cc", content}});
  EXPECT_EQ(rule_ids(util),
            (std::multiset<std::string>{"concurrency-raw-thread", "concurrency-raw-thread",
                                        "concurrency-raw-thread"}))
      << dump(util);
}

// obs-domain-separation needs both halves linted together under synthetic
// paths: the source's path must contain "obs/runtime" and the sink must live
// outside it. The diagnostic lands at the sink's definition.
std::vector<Diagnostic> lint_obs_domain_pair(const std::string& sink_fixture) {
  return ednsm::lint::run_lint(
      {SourceFile{"src/obs/runtime_probe.cc",
                  read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/obs_domain_runtime.cc")},
       SourceFile{"src/core/debug_dump.cc",
                  read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/" + sink_fixture)}});
}

TEST(LintFixtures, ObsDomainSeparationBad) {
  const auto diags = lint_obs_domain_pair("obs_domain_bad.cc");
  EXPECT_EQ(rule_ids(diags), (std::multiset<std::string>{"obs-domain-separation"}))
      << dump(diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].path, "src/core/debug_dump.cc");
  EXPECT_NE(diags[0].message.find("runtime_probe_elapsed_ns"), std::string::npos)
      << diags[0].message;
  EXPECT_NE(diags[0].message.find("write_jsonl"), std::string::npos) << diags[0].message;
}

TEST(LintFixtures, ObsDomainSeparationSuppressed) {
  const auto diags = lint_obs_domain_pair("obs_domain_allowed.cc");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// The runtime domain serializing *itself* (heartbeat/manifest codecs) is not
// a violation — the boundary only polices flow into deterministic sinks.
TEST(LintFixtures, ObsDomainSinkInsideDomainIsClean) {
  const auto diags = ednsm::lint::run_lint(
      {SourceFile{"src/obs/runtime_probe.cc",
                  read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/obs_domain_runtime.cc")},
       SourceFile{"src/obs/runtime_dump.cc",
                  read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/obs_domain_bad.cc")}});
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// hygiene-dead-function polices headers under src/, so the fixture is linted
// under a synthetic src/util/ path.
std::vector<Diagnostic> lint_dead_function_fixture() {
  return ednsm::lint::run_lint(
      {SourceFile{"src/util/dead_function_bad.h",
                  read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/dead_function_bad.h")}});
}

TEST(LintFixtures, DeadFunctionBad) {
  const auto diags = lint_dead_function_fixture();
  ASSERT_EQ(diags.size(), 2u) << dump(diags);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "hygiene-dead-function");
  EXPECT_NE(diags[0].message.find("unused_helper"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[1].message.find("Gadget::unused_method"), std::string::npos)
      << diags[1].message;
}

// Outside src/ (tools, tests, examples) the rule stays silent.
TEST(LintFixtures, DeadFunctionOutsideSrcIsExempt) {
  const auto diags = lint_fixture("dead_function_bad.h");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

std::vector<Diagnostic> lint_dead_field_fixture() {
  return ednsm::lint::run_lint(
      {SourceFile{"src/util/dead_field_bad.h",
                  read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/dead_field_bad.h")}});
}

TEST(LintFixtures, DeadFieldBad) {
  const auto diags = lint_dead_field_fixture();
  ASSERT_EQ(diags.size(), 2u) << dump(diags);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "hygiene-dead-field");
  EXPECT_EQ(diags[0].line, 15);
  EXPECT_NE(diags[0].message.find("Record::unused_count"), std::string::npos)
      << diags[0].message;
  EXPECT_EQ(diags[1].line, 24);
  EXPECT_NE(diags[1].message.find("Widget::unused_label"), std::string::npos)
      << diags[1].message;
}

// Outside src/ (tools, tests, examples) the rule stays silent.
TEST(LintFixtures, DeadFieldOutsideSrcIsExempt) {
  const auto diags = lint_fixture("dead_field_bad.h");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// Every advertised rule ID is exercised by at least one bad fixture. Most
// fixtures lint standalone; the architectural rules need a little staging —
// layering wants a src/<module>/ path plus a layers config, and the include
// cycle only exists when both halves are linted together.
TEST(LintFixtures, EveryRuleCovered) {
  const std::vector<std::string> bad_fixtures = {
      "unordered_iter_bad.cc", "wallclock_bad.cc",     "pointer_key_bad.h",
      "codec_parity_bad.cc",   "phase_sum_bad.h",      "phase_sum_missing.h",
      "pragma_once_bad.h",     "using_namespace_bad.h", "nodiscard_bad.h",
      "obs_span_balance_bad.cc", "raw_thread_bad.cc",   "taint_direct_bad.cc",
      "taint_one_hop_bad.cc",  "taint_write_json_bad.cc",
  };
  std::set<std::string> triggered;
  for (const std::string& name : bad_fixtures) {
    for (const Diagnostic& d : lint_fixture(name)) triggered.insert(d.rule);
  }

  // hygiene-dead-function and hygiene-dead-field: only headers under src/
  // are in scope.
  for (const Diagnostic& d : lint_dead_function_fixture()) triggered.insert(d.rule);
  for (const Diagnostic& d : lint_dead_field_fixture()) triggered.insert(d.rule);

  // arch-layering: the fixture inverts a layer edge once placed in src/util/.
  ednsm::lint::Options layer_options;
  layer_options.layers_text = "util:\nweb: util\n";
  const std::string layering = std::string(EDNSM_LINT_FIXTURE_DIR) + "/arch_layering_bad.cc";
  for (const Diagnostic& d : ednsm::lint::run_lint(
           {SourceFile{"src/util/arch_layering_bad.cc", read_file(layering)}}, layer_options)) {
    triggered.insert(d.rule);
  }

  // arch-include-cycle: both headers together close the loop.
  std::vector<SourceFile> cycle;
  for (const char* name : {"cycle_a.h", "cycle_b.h"}) {
    cycle.push_back(SourceFile{name, read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/" + name)});
  }
  for (const Diagnostic& d : ednsm::lint::run_lint(cycle)) triggered.insert(d.rule);

  // obs-domain-separation: needs the runtime-domain source and the
  // out-of-domain sink linted together under synthetic paths.
  for (const Diagnostic& d : lint_obs_domain_pair("obs_domain_bad.cc")) {
    triggered.insert(d.rule);
  }

  for (const ednsm::lint::RuleInfo& r : ednsm::lint::rules()) {
    EXPECT_EQ(triggered.count(std::string(r.id)), 1u)
        << "rule has no triggering fixture: " << r.id;
  }
}

// Diagnostics are sorted and stable, so CI output diffs cleanly.
TEST(LintFixtures, DiagnosticsSorted) {
  std::vector<SourceFile> files;
  for (const char* name : {"wallclock_bad.cc", "pragma_once_bad.h", "unordered_iter_bad.cc"}) {
    files.push_back(SourceFile{name, read_file(std::string(EDNSM_LINT_FIXTURE_DIR) + "/" + name)});
  }
  const auto diags = ednsm::lint::run_lint(files);
  ASSERT_GE(diags.size(), 3u);
  const bool sorted = std::is_sorted(
      diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
        return std::tie(a.path, a.line) <= std::tie(b.path, b.line);
      });
  EXPECT_TRUE(sorted) << dump(diags);
}

// ---------------------------------------------------------------------------
// Tree-level guarantees over the real sources.
// ---------------------------------------------------------------------------

std::vector<SourceFile> load_repo_tree() {
  std::vector<std::string> roots;
  for (const std::string_view root : ednsm::lint::kTreeRoots) {
    roots.push_back(std::string(EDNSM_SOURCE_DIR) + "/" + std::string(root));
  }
  return ednsm::lint::load_tree(roots);
}

// Every rule's findings minus the committed baseline. Layering (and with it
// the staleness of the layering entries) is
// LintTreeArch.CleanTreeConformsToLayersConf's job.
std::vector<Diagnostic> lint_minus_baseline(const std::vector<SourceFile>& files) {
  std::vector<ednsm::lint::BaselineEntry> baseline;
  std::string error;
  EXPECT_TRUE(ednsm::lint::parse_baseline(
      read_file(std::string(EDNSM_SOURCE_DIR) + "/tools/lint/baseline.json"), &baseline, &error))
      << error;
  return ednsm::lint::apply_baseline(ednsm::lint::run_lint(files), baseline).remaining;
}

TEST(LintTree, CleanTree) {
  const auto files = load_repo_tree();
  ASSERT_GT(files.size(), 100u) << "tree scan found suspiciously few files";
  const auto diags = lint_minus_baseline(files);
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

// A public function nobody calls must trip hygiene-dead-function, and
// nothing else.
TEST(LintTree, UnreferencedPublicFunctionFails) {
  auto files = load_repo_tree();
  std::size_t mutated = 0;
  for (SourceFile& f : files) {
    if (f.path.ends_with("src/util/strings.h")) {
      const std::size_t pos = f.content.rfind("}  // namespace");
      ASSERT_NE(pos, std::string::npos);
      f.content.insert(pos, "[[nodiscard]] std::string shout_label(std::string_view s);\n\n");
      ++mutated;
    } else if (f.path.ends_with("src/util/strings.cc")) {
      const std::size_t pos = f.content.rfind("}  // namespace");
      ASSERT_NE(pos, std::string::npos);
      f.content.insert(
          pos, "std::string shout_label(std::string_view s) { return std::string(s) + \"!\"; }\n\n");
      ++mutated;
    }
  }
  ASSERT_EQ(mutated, 2u);
  const auto diags = lint_minus_baseline(files);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "hygiene-dead-function");
  EXPECT_TRUE(diags[0].path.ends_with("src/util/strings.h")) << diags[0].path;
  EXPECT_NE(diags[0].message.find("shout_label"), std::string::npos) << diags[0].message;
}

// A public field nothing writes or reads must trip hygiene-dead-field, and
// nothing else.
TEST(LintTree, UnreferencedPublicFieldFails) {
  auto files = load_repo_tree();
  std::size_t mutated = 0;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("src/geo/vantage.h")) continue;
    const std::size_t pos = f.content.find("  GeoPoint location;");
    ASSERT_NE(pos, std::string::npos);
    f.content.insert(pos, "  std::string site_nickname;\n");
    ++mutated;
  }
  ASSERT_EQ(mutated, 1u);
  const auto diags = lint_minus_baseline(files);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "hygiene-dead-field");
  EXPECT_TRUE(diags[0].path.ends_with("src/geo/vantage.h")) << diags[0].path;
  EXPECT_NE(diags[0].message.find("VantagePoint::site_nickname"), std::string::npos)
      << diags[0].message;
}

// Removing a field from the ResultRecord JSON writer must trip codec-parity:
// this is what makes "add a field without round-trip support" fail CI.
TEST(LintTree, RemovingCodecWriterFieldFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("core/spec.cc")) continue;
    const std::size_t pos = f.content.find("o[\"connect_ms\"] = connect_ms;");
    ASSERT_NE(pos, std::string::npos) << "writer line not found in core/spec.cc";
    f.content.erase(pos, std::string("o[\"connect_ms\"] = connect_ms;").size());
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files);
  const bool found = std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "codec-parity" && d.message.find("connect_ms") != std::string::npos;
  });
  EXPECT_TRUE(found) << dump(diags);
}

// Dropping a reader clause must trip codec-parity the same way.
TEST(LintTree, RemovingCodecReaderFieldFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("core/spec.cc")) continue;
    const std::string line = "if (j.at(\"rtt_ms\").is_number()) p.rtt_ms = j.at(\"rtt_ms\").as_number();";
    const std::size_t pos = f.content.find(line);
    ASSERT_NE(pos, std::string::npos) << "reader line not found in core/spec.cc";
    f.content.erase(pos, line.size());
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files);
  const bool found = std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "codec-parity" && d.message.find("rtt_ms") != std::string::npos;
  });
  EXPECT_TRUE(found) << dump(diags);
}

// Adding an unsorted unordered_map emission loop must trip the determinism
// rule.
TEST(LintTree, UnsortedUnorderedEmissionFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("core/availability.cc")) continue;
    f.content +=
        "\nnamespace ednsm::core {\n"
        "std::vector<std::string> AvailabilityLedger::debug_resolvers() const {\n"
        "  std::vector<std::string> out;\n"
        "  for (const auto& [sym, counts] : by_resolver_) out.push_back(hostnames_.name(sym));\n"
        "  return out;\n"
        "}\n"
        "}  // namespace ednsm::core\n";
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files);
  const bool found = std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "determinism-unordered-iter" &&
           d.message.find("by_resolver_") != std::string::npos;
  });
  EXPECT_TRUE(found) << dump(diags);
}

// Adding a new SimDuration phase member without extending phase_sum() must
// trip the phase-timing rule.
TEST(LintTree, NewPhaseMemberOutsidePhaseSumFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("client/query.h")) continue;
    const std::string anchor = "netsim::SimDuration exchange{0};";
    const std::size_t pos = f.content.find(anchor);
    ASSERT_NE(pos, std::string::npos);
    f.content.insert(pos, "netsim::SimDuration retry_backoff{0};\n  ");
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files);
  const bool found = std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "phase-sum" && d.message.find("retry_backoff") != std::string::npos;
  });
  EXPECT_TRUE(found) << dump(diags);
}

// Spawning a raw std::thread in campaign code (instead of going through
// run_pipeline) must trip concurrency-raw-thread. The engine itself
// (core/parallel_campaign.cc) constructs threads and must stay clean.
TEST(LintTree, RawThreadOutsideEngineFails) {
  // A thread in core outside the engine and one in src/util both fail.
  const std::vector<std::string> targets = {"core/campaign.cc", "util/strings.cc"};
  auto files = load_repo_tree();
  std::size_t mutated = 0;
  for (SourceFile& f : files) {
    if (!f.path.ends_with(targets[0]) && !f.path.ends_with(targets[1])) continue;
    f.content +=
        "\nnamespace ednsm::core {\n"
        "void debug_background_round() {\n"
        "  std::thread worker([] {});\n"
        "  worker.join();\n"
        "}\n"
        "}  // namespace ednsm::core\n";
    ++mutated;
  }
  ASSERT_EQ(mutated, targets.size());
  const auto diags = ednsm::lint::run_lint(files);
  for (const std::string& target : targets) {
    const bool found = std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
      return d.rule == "concurrency-raw-thread" && d.path.ends_with(target);
    });
    EXPECT_TRUE(found) << target << "\n" << dump(diags);
  }
}

// Leaking runtime telemetry into the deterministic output contract — a
// to_json in core that calls a runtime-domain codec — must trip
// obs-domain-separation. This is the acceptance mutation for the clock-domain
// boundary staying machine-enforced.
TEST(LintTree, RuntimeTelemetryIntoDeterministicSinkFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("core/pipeline.cc")) continue;
    f.content +=
        "\nnamespace ednsm::core {\n"
        "util::Json to_json(const obs::RuntimeHeartbeat& hb) {\n"
        "  return hb.heartbeat_json();\n"
        "}\n"
        "}  // namespace ednsm::core\n";
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files);
  const bool found = std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "obs-domain-separation" && d.path.ends_with("core/pipeline.cc") &&
           d.message.find("heartbeat_json") != std::string::npos;
  });
  EXPECT_TRUE(found) << dump(diags);
}

// Hand-pairing Tracer::begin_span/end_span in simulation code (instead of the
// OBS_SPAN RAII macro) must trip obs-span-balance.
TEST(LintTree, ManualSpanPairingFails) {
  auto files = load_repo_tree();
  bool mutated = false;
  for (SourceFile& f : files) {
    if (!f.path.ends_with("core/campaign.cc")) continue;
    f.content +=
        "\nnamespace ednsm::core {\n"
        "void debug_trace_round(SimWorld& world) {\n"
        "  const auto id = world.tracer().begin_span(\"core\", \"round\", world.queue().now());\n"
        "  world.tracer().end_span(id, world.queue().now());\n"
        "}\n"
        "}  // namespace ednsm::core\n";
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const auto diags = ednsm::lint::run_lint(files);
  const auto count = std::count_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "obs-span-balance";
  });
  EXPECT_EQ(count, 2) << dump(diags);
}

}  // namespace
