#include "lint/lint.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "lint/graph.h"
#include "lint/layers.h"

namespace ednsm::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule IDs. These are the stable, user-facing names used in diagnostics and
// in `// ednsm-lint: allow(...)` suppressions and baseline entries.
// ---------------------------------------------------------------------------

constexpr std::string_view kUnorderedIter = "determinism-unordered-iter";
constexpr std::string_view kWallclock = "determinism-wallclock";
constexpr std::string_view kPointerKey = "determinism-pointer-key";
constexpr std::string_view kTaint = "determinism-taint";
constexpr std::string_view kCodecParity = "codec-parity";
constexpr std::string_view kPhaseSum = "phase-sum";
constexpr std::string_view kLayering = "arch-layering";
constexpr std::string_view kIncludeCycle = "arch-include-cycle";
constexpr std::string_view kPragmaOnce = "hygiene-pragma-once";
constexpr std::string_view kUsingNamespace = "hygiene-using-namespace";
constexpr std::string_view kNodiscardResult = "hygiene-nodiscard-result";
constexpr std::string_view kDeadFunction = "hygiene-dead-function";
constexpr std::string_view kDeadField = "hygiene-dead-field";
constexpr std::string_view kObsSpanBalance = "obs-span-balance";
constexpr std::string_view kObsDomain = "obs-domain-separation";
constexpr std::string_view kRawThread = "concurrency-raw-thread";

const std::vector<RuleInfo> kRules = {
    {kUnorderedIter,
     "iteration over an unordered container escapes its hash order into program "
     "output; sort keys at the emission point or suppress with a rationale"},
    {kWallclock,
     "wall-clock / ambient-randomness call outside netsim's seeded clock "
     "(std::rand, random_device, time(), *_clock::now) breaks run determinism"},
    {kPointerKey,
     "ordered container keyed by pointer: iteration order follows allocation "
     "addresses; use an unordered (hashed) container for point access"},
    {kTaint,
     "a nondeterministic value (wall clock, thread id, pointer-to-integer cast, "
     "unordered iteration) flows along call edges into a serialization sink "
     "(to_json / shard writers / obs export); the diagnostic names the full "
     "source-to-sink call path — suppress at the source line, the true origin"},
    {kCodecParity,
     "every public field of a struct with to_json/from_json must be referenced "
     "by the writer and the reader (round-trip completeness); helper functions "
     "called by the codec count as references"},
    {kPhaseSum,
     "every SimDuration phase member of a timing struct must be wired through "
     "phase_sum() (additive phase-timing discipline)"},
    {kLayering,
     "#include edge between src/ modules that the declared dependency DAG "
     "(tools/lint/layers.conf) does not allow; modules may depend downward only"},
    {kIncludeCycle,
     "cycle in the file-level include graph: headers in a cycle cannot be "
     "layered and break independent compilation"},
    {kPragmaOnce, "header lacks #pragma once (or a classic include guard)"},
    {kUsingNamespace, "using namespace at header scope pollutes every includer"},
    {kNodiscardResult,
     "function declared to return Result<...> without [[nodiscard]]: dropped "
     "errors vanish silently"},
    {kDeadFunction,
     "function declared in a src/ header whose name occurs nowhere in the "
     "scanned tree except at its own declarations and definitions: delete it, "
     "or keep a test-only helper with an allow naming the test"},
    {kDeadField,
     "public field of a struct in a src/ header whose name occurs nowhere in the "
     "scanned tree except at its own declaration: nothing writes or reads it, so "
     "delete it, or keep it with an allow naming its reader"},
    {kObsSpanBalance,
     "manual Tracer begin_span/end_span call outside src/obs: hand-paired "
     "spans leak on early return or exception; use the OBS_SPAN RAII macro"},
    {kObsDomain,
     "wall-clock runtime telemetry (a function defined in obs/runtime, the "
     "sanctioned host-clock domain) reaches a deterministic serialization sink "
     "(to_json / to_binary / shard writers) along call edges; runtime counters "
     "must stay out of the byte-identical output contract — export them via "
     "heartbeat/manifest files or to_prometheus"},
    {kRawThread,
     "raw std::thread/std::jthread outside the campaign engine "
     "(core/parallel_campaign.cc): ad-hoc threads bypass the worker pool's "
     "shard determinism and join/error discipline; route work through "
     "run_pipeline()"},
};

// ---------------------------------------------------------------------------
// Rule: determinism-unordered-iter
// ---------------------------------------------------------------------------

// Harvest names of variables declared with an unordered container type.
// Member names (trailing underscore) go into the cross-file `members` set —
// they are declared in headers and iterated in .cc files — while locals and
// parameters stay scoped to the declaring file, so a common local name in
// one file cannot taint every other file. Also harvests
// `using Alias = std::unordered_map<...>` aliases and variables declared
// with those aliases.
void harvest_unordered_names(const Prepared& p, std::set<std::string>& members,
                             std::set<std::string>& locals, std::set<std::string>& aliases) {
  const std::string_view code = p.code;
  auto harvest_decl_after = [&](std::size_t type_begin, std::size_t after_type) {
    std::size_t i = skip_ws(code, after_type);
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) i = skip_ws(code, i + 1);
    std::size_t end = i;
    const std::string var = read_ident(code, i, &end);
    if (var.empty()) return;
    const std::size_t next = skip_ws(code, end);
    if (next < code.size() &&
        (code[next] == ';' || code[next] == '=' || code[next] == '{' || code[next] == ',' ||
         code[next] == ')' || code[next] == '(')) {
      (var.ends_with("_") ? members : locals).insert(var);
    }
    // `using Alias = std::unordered_map<...>` — look back for the alias name.
    std::size_t back = prev_nonspace(code, type_begin);
    while (back != std::string_view::npos &&
           (code[back] == ':' || ident_char(code[back]))) {
      if (code[back] == ':') {
        back = prev_nonspace(code, back);
        continue;
      }
      break;
    }
    if (back != std::string_view::npos && code[back] == '=') {
      std::size_t name_last = prev_nonspace(code, back);
      if (name_last != std::string_view::npos && ident_char(code[name_last])) {
        std::size_t begin = name_last;
        while (begin > 0 && ident_char(code[begin - 1])) --begin;
        aliases.insert(std::string(code.substr(begin, name_last - begin + 1)));
      }
    }
  };

  for (const std::string_view word : {std::string_view("unordered_map"),
                                      std::string_view("unordered_set"),
                                      std::string_view("unordered_multimap"),
                                      std::string_view("unordered_multiset")}) {
    for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      const std::size_t open = skip_ws(code, pos + word.size());
      if (open >= code.size() || code[open] != '<') continue;
      const std::size_t close = match_angle(code, open);
      if (close == std::string_view::npos) continue;
      harvest_decl_after(pos, close);
    }
  }
}

void harvest_alias_decls(const Prepared& p, const std::set<std::string>& aliases,
                         std::set<std::string>& members, std::set<std::string>& locals) {
  const std::string_view code = p.code;
  for (const std::string& alias : aliases) {
    for (std::size_t pos = find_word(code, alias); pos != std::string_view::npos;
         pos = find_word(code, alias, pos + 1)) {
      std::size_t after = pos + alias.size();
      const std::size_t maybe_angle = skip_ws(code, after);
      if (maybe_angle < code.size() && code[maybe_angle] == '<') {
        const std::size_t close = match_angle(code, maybe_angle);
        if (close == std::string_view::npos) continue;
        after = close;
      }
      std::size_t i = skip_ws(code, after);
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) i = skip_ws(code, i + 1);
      std::size_t end = i;
      const std::string var = read_ident(code, i, &end);
      if (var.empty() || var == alias) continue;
      const std::size_t next = skip_ws(code, end);
      if (next < code.size() && (code[next] == ';' || code[next] == '=' || code[next] == '{')) {
        (var.ends_with("_") ? members : locals).insert(var);
      }
    }
  }
}

// One unordered-iteration site. Shared by the token rule (which reports it
// directly) and the taint pass (which follows it to serialization sinks).
struct UnorderedSite {
  std::size_t pos = 0;
  std::string name;
  std::string what;  // "range-for" or "iterator walk"
};

std::vector<UnorderedSite> collect_unordered_sites(const Prepared& p,
                                                   const std::set<std::string>& names) {
  std::vector<UnorderedSite> sites;
  const std::string_view code = p.code;
  // Range-for whose range expression mentions a harvested name.
  for (std::size_t pos = find_word(code, "for"); pos != std::string_view::npos;
       pos = find_word(code, "for", pos + 1)) {
    const std::size_t open = skip_ws(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_block(code, open, '(', ')');
    if (close == std::string_view::npos) continue;
    const std::string_view header = code.substr(open + 1, close - open - 2);
    // Find a top-level ':' that is not part of '::'.
    std::size_t colon = std::string_view::npos;
    int depth = 0;
    for (std::size_t i = 0; i < header.size(); ++i) {
      const char c = header[i];
      if (c == '(' || c == '[' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '>') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < header.size() && header[i + 1] == ':') || (i > 0 && header[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string_view::npos) continue;
    // The range expression must BE the container — the bare name or a member
    // access ending in it (`x.name`, `this->name`). Subscripts or further
    // member accesses (`entries_[i].indices`) iterate something else that
    // merely shares the identifier.
    std::string range;
    for (const char c : header.substr(colon + 1)) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) range.push_back(c);
    }
    for (const std::string& name : names) {
      if (range == name || range.ends_with("." + name) || range.ends_with(">" + name)) {
        sites.push_back(UnorderedSite{pos, name, "range-for"});
        break;
      }
    }
  }
  // Iterator-style walks: name.begin() / name.cbegin().
  for (const std::string& name : names) {
    for (std::size_t pos = find_word(code, name); pos != std::string_view::npos;
         pos = find_word(code, name, pos + 1)) {
      std::size_t i = skip_ws(code, pos + name.size());
      if (i >= code.size() || code[i] != '.') continue;
      i = skip_ws(code, i + 1);
      if (word_at(code, i, "begin") || word_at(code, i, "cbegin")) {
        sites.push_back(UnorderedSite{pos, name, "iterator walk"});
      }
    }
  }
  std::sort(sites.begin(), sites.end(), [](const UnorderedSite& a, const UnorderedSite& b) {
    return std::tie(a.pos, a.name) < std::tie(b.pos, b.name);
  });
  return sites;
}

void check_unordered_iteration(const Prepared& p, const std::vector<UnorderedSite>& sites,
                               std::vector<Diagnostic>& out) {
  for (const UnorderedSite& s : sites) {
    if (s.what == "range-for") {
      out.push_back({std::string(p.file->path), line_of(p, s.pos), std::string(kUnorderedIter),
                     "range-for over unordered container '" + s.name +
                         "': iteration order is the hash order, which leaks "
                         "nondeterminism into anything emitted from this loop; sort "
                         "keys at the emission point (or suppress with a rationale "
                         "if order provably cannot escape)",
                     "",
                     {}});
    } else {
      out.push_back({std::string(p.file->path), line_of(p, s.pos), std::string(kUnorderedIter),
                     "iterator walk over unordered container '" + s.name +
                         "' (begin()): iteration order is the hash order; sort keys "
                         "at the emission point or suppress with a rationale",
                     "",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism-wallclock
// ---------------------------------------------------------------------------

void check_wallclock(const Prepared& p, std::vector<Diagnostic>& out) {
  // netsim owns the seeded clock and RNG; obs/runtime is the sanctioned
  // wall-clock telemetry domain (obs-domain-separation polices its outflow).
  // The rule polices everything else.
  if (path_contains(p.file->path, "netsim/") ||
      path_contains(p.file->path, "obs/runtime")) {
    return;
  }
  const std::string_view code = p.code;

  auto diag = [&](std::size_t pos, const std::string& what) {
    out.push_back({std::string(p.file->path), line_of(p, pos), std::string(kWallclock),
                   what + " is nondeterministic across runs; simulation code must go "
                          "through netsim's seeded clock/RNG (wall-clock benchmark "
                          "harness timing may suppress with a rationale)",
                   "",
                   {}});
  };

  for (const std::string_view word :
       {std::string_view("random_device"), std::string_view("srand"),
        std::string_view("gettimeofday"), std::string_view("clock_gettime"),
        std::string_view("localtime"), std::string_view("gmtime"), std::string_view("mktime")}) {
    for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      diag(pos, "'" + std::string(word) + "'");
    }
  }
  // rand( / time( — bare calls only; member access (x.time()) is unrelated.
  for (const std::string_view word : {std::string_view("rand"), std::string_view("time")}) {
    for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      const std::size_t after = skip_ws(code, pos + word.size());
      if (after >= code.size() || code[after] != '(') continue;
      const std::size_t before = prev_nonspace(code, pos);
      if (before != std::string_view::npos &&
          (code[before] == '.' ||
           (code[before] == '>' && before > 0 && code[before - 1] == '-'))) {
        continue;
      }
      diag(pos, "'" + std::string(word) + "()'");
    }
  }
  // system_clock::now / steady_clock::now / high_resolution_clock::now.
  for (const std::string_view clk :
       {std::string_view("system_clock"), std::string_view("steady_clock"),
        std::string_view("high_resolution_clock")}) {
    for (std::size_t pos = find_word(code, clk); pos != std::string_view::npos;
         pos = find_word(code, clk, pos + 1)) {
      std::size_t i = skip_ws(code, pos + clk.size());
      if (i + 1 < code.size() && code[i] == ':' && code[i + 1] == ':') {
        i = skip_ws(code, i + 2);
        if (word_at(code, i, "now")) diag(pos, "'" + std::string(clk) + "::now()'");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism-pointer-key
// ---------------------------------------------------------------------------

void check_pointer_keys(const Prepared& p, std::vector<Diagnostic>& out) {
  const std::string_view code = p.code;
  for (const std::string_view word : {std::string_view("map"), std::string_view("set"),
                                      std::string_view("multimap"), std::string_view("multiset")}) {
    for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      // Require a `::` qualifier so bare identifiers named `map`/`set` and
      // member calls (.set(...)) don't trip the rule. unordered_map is its
      // own token, so this never double-reports.
      const std::size_t before = prev_nonspace(code, pos);
      if (before == std::string_view::npos || code[before] != ':' || before == 0 ||
          code[before - 1] != ':') {
        continue;
      }
      const std::size_t open = skip_ws(code, pos + word.size());
      if (open >= code.size() || code[open] != '<') continue;
      const std::size_t close = match_angle(code, open);
      if (close == std::string_view::npos) continue;
      // First top-level template argument.
      std::string_view args = code.substr(open + 1, close - open - 2);
      int depth = 0;
      std::size_t arg_end = args.size();
      for (std::size_t i = 0; i < args.size(); ++i) {
        const char c = args[i];
        if (c == '<' || c == '(' || c == '[') ++depth;
        if (c == '>' || c == ')' || c == ']') --depth;
        if (c == ',' && depth == 0) {
          arg_end = i;
          break;
        }
      }
      std::string key(args.substr(0, arg_end));
      // Trim trailing whitespace and a trailing `const` qualifier.
      auto rtrim = [&] {
        while (!key.empty() && std::isspace(static_cast<unsigned char>(key.back())) != 0) {
          key.pop_back();
        }
      };
      rtrim();
      if (key.ends_with("const")) {
        key.erase(key.size() - 5);
        rtrim();
      }
      if (!key.empty() && key.back() == '*') {
        out.push_back({std::string(p.file->path), line_of(p, pos), std::string(kPointerKey),
                       "std::" + std::string(word) + " keyed by pointer type '" + key +
                           "': comparison order follows allocation addresses, which "
                           "differ across runs; use an unordered (hashed) container "
                           "for point access, or key by a stable ID if iterated",
                       "",
                       {}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: codec-parity and phase-sum
// ---------------------------------------------------------------------------

// The body of `Struct::method` expanded with the bodies of its intraproject
// callees (depth <= 2, same module or same file), so a field serialized
// inside a helper function still counts as referenced. Falls back to the
// plain body when the function pass did not model the method.
std::optional<std::string> expanded_method_body(const SymbolIndex& index, const CallGraph& graph,
                                                const StructDef& s, std::string_view method) {
  // Locate the defined FunctionDef for Struct::method. When several structs
  // share a name, prefer the definition inline in this struct's body, then
  // one in the struct's own module.
  int fn = -1;
  int best_rank = -1;
  for (const int id : index.definitions_named(method)) {
    const FunctionDef& cand = index.functions[static_cast<std::size_t>(id)];
    if (cand.class_name != s.name) continue;
    int rank = 0;
    if (!index.modules[static_cast<std::size_t>(cand.file)].empty() &&
        index.modules[static_cast<std::size_t>(cand.file)] ==
            index.modules[static_cast<std::size_t>(s.file)]) {
      rank = 1;
    }
    if (cand.file == s.file && s.body_begin <= cand.body_begin && cand.body_end <= s.body_end) {
      rank = 2;
    }
    if (rank > best_rank) {
      best_rank = rank;
      fn = id;
    }
  }
  if (fn < 0) return method_body(index, s, method);

  const std::string& home_module = index.modules[static_cast<std::size_t>(s.file)];
  std::string text;
  std::set<int> visited;
  std::deque<std::pair<int, int>> queue{{fn, 0}};  // (function id, depth)
  while (!queue.empty()) {
    const auto [cur, depth] = queue.front();
    queue.pop_front();
    if (!visited.insert(cur).second) continue;
    const FunctionDef& f = index.functions[static_cast<std::size_t>(cur)];
    text += function_body_with_strings(index, f);
    text += '\n';
    if (depth >= 2) continue;
    for (const CallSite& call : graph.calls[static_cast<std::size_t>(cur)]) {
      const FunctionDef& callee = index.functions[static_cast<std::size_t>(call.callee)];
      const std::string& callee_module = index.modules[static_cast<std::size_t>(callee.file)];
      if (callee.file == f.file || (!home_module.empty() && callee_module == home_module)) {
        queue.emplace_back(call.callee, depth + 1);
      }
    }
  }
  if (text.empty()) return method_body(index, s, method);
  return text;
}

void check_codec_parity(const SymbolIndex& index, const CallGraph& graph,
                        std::vector<Diagnostic>& out) {
  for (const StructDef& s : index.structs) {
    if (!s.has_to_json || !s.has_from_json) continue;
    const auto writer = expanded_method_body(index, graph, s, "to_json");
    const auto reader = expanded_method_body(index, graph, s, "from_json");
    if (!writer.has_value() || !reader.has_value()) {
      // Declarations without definitions anywhere in the scanned set: either
      // a scan over a partial tree (tests pass single fixtures) or a genuinely
      // missing codec half. Flag only when one half is defined.
      if (writer.has_value() != reader.has_value()) {
        out.push_back({std::string(s.where->file->path), s.line, std::string(kCodecParity),
                       "struct '" + s.name + "' defines " +
                           (writer.has_value() ? "to_json" : "from_json") + " but no " +
                           (writer.has_value() ? "from_json" : "to_json") +
                           " definition was found: the codec cannot round-trip",
                       "",
                       {}});
      }
      continue;
    }
    for (const Field& f : s.fields) {
      const bool in_writer = contains_word(*writer, f.name);
      const bool in_reader = contains_word(*reader, f.name);
      if (in_writer && in_reader) continue;
      std::string missing;
      if (!in_writer && !in_reader) {
        missing = "to_json or from_json";
      } else if (!in_writer) {
        missing = "to_json";
      } else {
        missing = "from_json";
      }
      out.push_back({std::string(s.where->file->path), f.line, std::string(kCodecParity),
                     "field '" + f.name + "' of '" + s.name + "' is not referenced by " +
                         missing +
                         " (helpers called by the codec were searched too): the JSON "
                         "codec would silently drop it on round trip; wire it through "
                         "both sides (or suppress with a rationale for derived fields "
                         "rebuilt by the reader)",
                     "",
                     {}});
    }
  }
}

void check_phase_sum(const SymbolIndex& index, std::vector<Diagnostic>& out) {
  for (const StructDef& s : index.structs) {
    std::vector<const Field*> durations;
    for (const Field& f : s.fields) {
      if (contains_word(f.decl, "SimDuration")) durations.push_back(&f);
    }
    if (s.name == "QueryTiming" && !s.has_phase_sum && !durations.empty()) {
      out.push_back({std::string(s.where->file->path), s.line, std::string(kPhaseSum),
                     "struct 'QueryTiming' must define phase_sum() covering its "
                     "SimDuration phase members (additive timing invariant)",
                     "",
                     {}});
      continue;
    }
    if (!s.has_phase_sum || durations.empty()) continue;
    const auto body = method_body(index, s, "phase_sum");
    if (!body.has_value()) continue;
    for (const Field* f : durations) {
      if (contains_word(*body, f->name)) continue;
      out.push_back({std::string(s.where->file->path), f->line, std::string(kPhaseSum),
                     "SimDuration member '" + f->name + "' of '" + s.name +
                         "' is not included in phase_sum(): new phases must stay "
                         "additive (phase_sum() <= total); add it to the sum, or "
                         "suppress with a rationale for aggregate members",
                     "",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Hygiene rules.
// ---------------------------------------------------------------------------

void check_pragma_once(const Prepared& p, std::vector<Diagnostic>& out) {
  if (!is_header(p.file->path)) return;
  const std::string_view code = p.code;
  if (code.find("#pragma once") != std::string_view::npos) return;
  if (code.find("#ifndef") != std::string_view::npos &&
      code.find("#define") != std::string_view::npos) {
    return;
  }
  out.push_back({std::string(p.file->path), 1, std::string(kPragmaOnce),
                 "header has neither #pragma once nor an include guard: double "
                 "inclusion will produce redefinition errors",
                 "",
                 {}});
}

void check_using_namespace(const Prepared& p, std::vector<Diagnostic>& out) {
  if (!is_header(p.file->path)) return;
  const std::string_view code = p.code;
  for (std::size_t pos = find_word(code, "using"); pos != std::string_view::npos;
       pos = find_word(code, "using", pos + 1)) {
    const std::size_t next = skip_ws(code, pos + 5);
    if (word_at(code, next, "namespace")) {
      out.push_back({std::string(p.file->path), line_of(p, pos), std::string(kUsingNamespace),
                     "'using namespace' in a header injects the namespace into every "
                     "translation unit that includes it; qualify names instead",
                     "",
                     {}});
    }
  }
}

void check_nodiscard_result(const Prepared& p, std::vector<Diagnostic>& out) {
  if (!is_header(p.file->path)) return;
  const std::string_view code = p.code;
  for (std::size_t pos = find_word(code, "Result"); pos != std::string_view::npos;
       pos = find_word(code, "Result", pos + 1)) {
    const std::size_t open = pos + 6;
    if (open >= code.size() || code[open] != '<') continue;
    const std::size_t close = match_angle(code, open);
    if (close == std::string_view::npos) continue;
    // Must look like a function declaration: `Result<...> name (`.
    std::size_t i = skip_ws(code, close);
    std::size_t name_end = i;
    const std::string fn = read_ident(code, i, &name_end);
    if (fn.empty() || fn == "operator") continue;
    const std::size_t paren = skip_ws(code, name_end);
    if (paren >= code.size() || code[paren] != '(') continue;
    // Walk the tokens before `Result` back to the start of the declaration;
    // specifiers are fine, `[[nodiscard]]` absolves, and `friend` / `using` /
    // `return` / `,` / `(` contexts are not declarations we police.
    std::size_t back = pos;
    bool absolved = false;
    bool skip = false;
    while (true) {
      const std::size_t prev = prev_nonspace(code, back);
      if (prev == std::string_view::npos) break;
      const char c = code[prev];
      if (c == ']' && prev > 0 && code[prev - 1] == ']') {
        absolved = true;  // [[nodiscard]] (or any attribute) directly before
        break;
      }
      if (ident_char(c)) {
        std::size_t begin = prev;
        while (begin > 0 && ident_char(code[begin - 1])) --begin;
        const std::string_view tok = code.substr(begin, prev - begin + 1);
        if (tok == "static" || tok == "virtual" || tok == "inline" || tok == "constexpr" ||
            tok == "explicit") {
          back = begin;
          continue;
        }
        skip = true;  // `friend Result<...>`, `using X = Result<...>`, casts, ...
        break;
      }
      break;  // ; } { ( , < etc. — start of statement or a non-declaration use
    }
    if (absolved || skip) continue;
    // Exclude out-of-line qualified definitions (`Result<T> S::f(...)`).
    if (name_end + 1 < code.size() && code[name_end] == ':' && code[name_end + 1] == ':') continue;
    out.push_back({std::string(p.file->path), line_of(p, pos), std::string(kNodiscardResult),
                   "function '" + fn + "' returns Result<...> without [[nodiscard]]: a "
                   "caller that drops the return value silently loses the error",
                   "",
                   {}});
  }
}

// ---------------------------------------------------------------------------
// Rule: hygiene-dead-function
// ---------------------------------------------------------------------------

// Functions declared (or defined inline) in a header under src/. Helpers
// local to a .cc file are the compiler's job (-Wunused-function).
// Constructors and operators are exempt; destructors are never indexed.
bool dead_function_candidate(const SymbolIndex& index, const FunctionDef& f) {
  const std::size_t file = static_cast<std::size_t>(f.file);
  if (index.modules[file].empty() || !is_header(index.files[file].file->path)) return false;
  if (f.name == f.class_name) return false;
  const std::string_view code = index.files[file].code;
  const std::size_t before = prev_nonspace(code, f.pos);
  return before == std::string_view::npos || before < 7 ||
         !word_at(code, before - 7, "operator");
}

// name -> whole-word occurrences in the comment- and string-blanked code of
// every scanned file.
using WordCounts = std::map<std::string, int, std::less<>>;

void count_words(const SymbolIndex& index, WordCounts& counts) {
  if (counts.empty()) return;
  for (const Prepared& p : index.files) {
    const std::string_view code = p.code;
    for (std::size_t i = 0; i < code.size();) {
      if (!ident_char(code[i])) {
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end < code.size() && ident_char(code[end])) ++end;
      const auto it = counts.find(code.substr(i, end - i));
      if (it != counts.end()) ++it->second;
      i = end;
    }
  }
}

// A function is dead when its name occurs in no scanned file except at its
// own declarations and definitions: the index entries with its name and
// class. Every other occurrence counts as a use (a call, `&fn`, a mention in
// a macro), so the rule cannot see unused overloads or unused functions that
// share a name with a used one.
void check_dead_functions(const SymbolIndex& index, std::vector<Diagnostic>& out) {
  WordCounts occurrences;
  for (const FunctionDef& f : index.functions) {
    if (dead_function_candidate(index, f)) occurrences.emplace(f.name, 0);
  }
  count_words(index, occurrences);
  std::map<std::pair<std::string, std::string>, int> own;  // (class, name) -> entries
  for (const FunctionDef& f : index.functions) {
    if (occurrences.count(f.name) > 0) ++own[{f.class_name, f.name}];
  }
  for (const FunctionDef& f : index.functions) {
    if (!dead_function_candidate(index, f)) continue;
    if (occurrences.find(f.name)->second > own[{f.class_name, f.name}]) continue;
    out.push_back({index.files[static_cast<std::size_t>(f.file)].file->path, f.line,
                   std::string(kDeadFunction),
                   "function '" + f.qualified() +
                       "' is referenced nowhere in the scanned tree except by its own "
                       "declarations and definitions: delete it, or, if a test uses it "
                       "to observe live code, keep it with an allow that names the test",
                   "",
                   {}});
  }
}

// ---------------------------------------------------------------------------
// Rule: hygiene-dead-field
// ---------------------------------------------------------------------------

// A public field of a struct or class in a header under src/ is dead when its
// name occurs as a whole word nowhere in the scanned tree except at its own
// declaration: nothing writes it and nothing reads it. Any other occurrence
// (an access, a designated initializer, the same name on another struct or
// a local) counts as a use, so common names escape, as with functions.
void check_dead_fields(const SymbolIndex& index, std::vector<Diagnostic>& out) {
  std::vector<std::pair<const StructDef*, const Field*>> candidates;
  WordCounts occurrences;
  for (const StructDef& s : index.structs) {
    const std::size_t file = static_cast<std::size_t>(s.file);
    if (index.modules[file].empty() || !is_header(index.files[file].file->path)) continue;
    for (const Field& f : s.fields) {
      candidates.emplace_back(&s, &f);
      occurrences.emplace(f.name, 0);
    }
  }
  count_words(index, occurrences);
  for (const auto& [s, f] : candidates) {
    if (occurrences.find(f->name)->second > 1) continue;
    out.push_back({std::string(s->where->file->path), f->line, std::string(kDeadField),
                   "field '" + s->name + "::" + f->name +
                       "' is named nowhere in the scanned tree except by its own "
                       "declaration: nothing writes or reads it; delete it, or keep it "
                       "with an allow that names its reader",
                   "",
                   {}});
  }
}

// ---------------------------------------------------------------------------
// Rule: obs-span-balance
// ---------------------------------------------------------------------------

void check_obs_span_balance(const Prepared& p, std::vector<Diagnostic>& out) {
  // src/obs implements the span protocol itself (SpanGuard pairs the calls);
  // everywhere else must go through the OBS_SPAN macro so scopes self-close.
  if (path_contains(p.file->path, "obs/")) return;
  const std::string_view code = p.code;
  for (const std::string_view word :
       {std::string_view("begin_span"), std::string_view("end_span")}) {
    for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      out.push_back({std::string(p.file->path), line_of(p, pos), std::string(kObsSpanBalance),
                     "manual '" + std::string(word) + "' call: hand-paired spans leak on "
                     "early return or exception; use the OBS_SPAN RAII macro",
                     "",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: concurrency-raw-thread
// ---------------------------------------------------------------------------

void check_raw_thread(const Prepared& p, std::vector<Diagnostic>& out) {
  // The campaign engine owns every worker thread lifecycle (spawn, run every
  // plan even after an error, join). Ad-hoc std::thread anywhere else
  // escapes that discipline: no shard determinism, no guaranteed join, no
  // first-error propagation.
  if (path_contains(p.file->path, "core/parallel_campaign.cc")) return;
  const std::string_view code = p.code;
  for (const std::string_view word :
       {std::string_view("thread"), std::string_view("jthread")}) {
    for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
         pos = find_word(code, word, pos + 1)) {
      // Only the qualified type name `std::thread` counts. This skips
      // `#include <thread>`, identifiers like `threads` (word boundary),
      // and `std::this_thread::*` (the match inside `this_thread` is not a
      // whole word).
      const std::size_t colon2 = prev_nonspace(code, pos);
      if (colon2 == std::string_view::npos || colon2 < 1) continue;
      if (code[colon2] != ':' || code[colon2 - 1] != ':') continue;
      const std::size_t std_last = prev_nonspace(code, colon2 - 1);
      if (std_last == std::string_view::npos || std_last < 2) continue;
      if (code.compare(std_last - 2, 3, "std") != 0) continue;
      if (std_last >= 3 && ident_char(code[std_last - 3])) continue;
      out.push_back({std::string(p.file->path), line_of(p, pos), std::string(kRawThread),
                     "raw 'std::" + std::string(word) + "' outside core/parallel_campaign.cc: "
                     "route parallel work through run_pipeline() so shards stay "
                     "deterministic and errors join cleanly",
                     "",
                     {}});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface.
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<Diagnostic> run_lint(const std::vector<SourceFile>& files) {
  return run_lint(files, Options{});
}

std::vector<Diagnostic> run_lint(const std::vector<SourceFile>& files, const Options& options) {
  // Pass 1: the symbol index (blanked text, suppressions, structs, functions,
  // includes, module ownership).
  const SymbolIndex index = build_index(files);

  // Pass 2: the approximate call graph.
  const CallGraph graph = build_call_graph(index);

  // Cross-file harvest for the unordered-iteration rule.
  std::set<std::string> unordered_members;
  std::set<std::string> unordered_aliases;
  std::vector<std::set<std::string>> unordered_locals(index.files.size());
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    harvest_unordered_names(index.files[i], unordered_members, unordered_locals[i],
                            unordered_aliases);
  }
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    harvest_alias_decls(index.files[i], unordered_aliases, unordered_members,
                        unordered_locals[i]);
  }

  // Pass 3: the rules.
  std::vector<Diagnostic> diags;
  std::vector<TaintSource> unordered_taint;
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const Prepared& p = index.files[i];
    std::set<std::string> names = unordered_members;
    names.insert(unordered_locals[i].begin(), unordered_locals[i].end());
    const std::vector<UnorderedSite> sites = collect_unordered_sites(p, names);
    check_unordered_iteration(p, sites, diags);
    for (const UnorderedSite& s : sites) {
      const int line = line_of(p, s.pos);
      if (is_allowed(p, line, kTaint) || is_allowed(p, line, kUnorderedIter)) continue;
      unordered_taint.push_back(TaintSource{static_cast<int>(i), s.pos, line,
                                            s.what + " over unordered container '" + s.name +
                                                "'",
                                            std::string(kUnorderedIter)});
    }
    check_wallclock(p, diags);
    check_pointer_keys(p, diags);
    check_pragma_once(p, diags);
    check_using_namespace(p, diags);
    check_nodiscard_result(p, diags);
    check_obs_span_balance(p, diags);
    check_raw_thread(p, diags);
  }
  check_codec_parity(index, graph, diags);
  check_phase_sum(index, diags);
  check_dead_functions(index, diags);
  check_dead_fields(index, diags);
  check_determinism_taint(index, graph, unordered_taint, diags);
  check_obs_domain_separation(index, graph, diags);
  check_include_cycles(index, diags);
  if (!options.layers_text.empty()) {
    LayerConfig config;
    std::string error;
    if (!LayerConfig::parse(options.layers_text, &config, &error)) {
      // A broken config is itself a finding — the tree cannot claim
      // conformance to a DAG that does not parse or is not a DAG.
      diags.push_back({std::string(kLayersPath), 1, std::string(kLayering), error, "", {}});
    } else {
      check_layering(index, config, diags);
    }
  }

  // Apply suppressions, then sort and dedupe for stable output.
  std::vector<Diagnostic> out;
  for (Diagnostic& d : diags) {
    const Prepared* p = nullptr;
    for (const Prepared& cand : index.files) {
      if (cand.file->path == d.path) {
        p = &cand;
        break;
      }
    }
    if (p != nullptr && is_allowed(*p, d.line, d.rule)) continue;
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.path, a.line, a.rule, a.message) <
           std::tie(b.path, b.line, b.rule, b.message);
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<SourceFile> load_tree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    if (!fs::exists(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
        paths.push_back(entry.path().generic_string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> out;
  out.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back(SourceFile{path, std::move(buf).str()});
  }
  return out;
}

std::string format(const Diagnostic& d) {
  return d.path + ":" + std::to_string(d.line) + ": error: [" + d.rule + "] " + d.message;
}

namespace {

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string format_json(const std::vector<Diagnostic>& diags) {
  std::string out = "{\"findings\": [";
  bool first = true;
  for (const Diagnostic& d : diags) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"rule\": " + json_str(d.rule) + ", \"path\": " + json_str(d.path) +
           ", \"line\": " + std::to_string(d.line) + ", \"key\": " + json_str(d.key) +
           ", \"trace\": [";
    for (std::size_t i = 0; i < d.trace.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_str(d.trace[i]);
    }
    out += "], \"message\": " + json_str(d.message) + "}";
  }
  out += diags.empty() ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace ednsm::lint
