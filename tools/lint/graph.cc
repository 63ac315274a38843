#include "lint/graph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace ednsm::lint {

namespace {

constexpr std::string_view kTaintRule = "determinism-taint";
constexpr std::string_view kWallclockRule = "determinism-wallclock";
constexpr std::string_view kObsDomainRule = "obs-domain-separation";

// The wall-clock telemetry domain: obs/runtime.{h,cc}. The only place host
// clock reads are sanctioned (check_wallclock exempts it); the price is that
// nothing defined there may flow into a deterministic sink.
bool runtime_domain_file(const SymbolIndex& index, int file) {
  return path_contains(index.files[static_cast<std::size_t>(file)].file->path, "obs/runtime");
}

// Identifiers that look like calls but never are (or that the graph must not
// follow: casts and control flow).
bool call_keyword(std::string_view w) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",      "while",    "switch",      "catch",
      "return",   "sizeof",   "alignof",  "decltype",    "static_assert",
      "assert",   "new",      "delete",   "throw",       "operator",
      "alignas",  "defined",  "noexcept", "static_cast", "dynamic_cast",
      "const_cast", "reinterpret_cast"};
  return kKeywords.count(w) > 0;
}

}  // namespace

int enclosing_function(const SymbolIndex& index, int file, std::size_t pos) {
  int best = -1;
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    const FunctionDef& f = index.functions[i];
    if (!f.defined || f.file != file) continue;
    if (f.body_begin <= pos && pos < f.body_end) {
      if (best < 0 ||
          f.body_begin > index.functions[static_cast<std::size_t>(best)].body_begin) {
        best = static_cast<int>(i);
      }
    }
  }
  return best;
}

CallGraph build_call_graph(const SymbolIndex& index) {
  CallGraph g;
  g.calls.resize(index.functions.size());
  g.callers.resize(index.functions.size());

  for (std::size_t caller = 0; caller < index.functions.size(); ++caller) {
    const FunctionDef& f = index.functions[caller];
    if (!f.defined) continue;
    const Prepared& p = index.files[static_cast<std::size_t>(f.file)];
    const std::string_view code = p.code;
    std::set<int> seen;  // dedupe edges per caller

    for (std::size_t i = f.body_begin; i < f.body_end; ++i) {
      if (!ident_char(code[i]) || (i > 0 && ident_char(code[i - 1]))) continue;
      std::size_t end = i;
      const std::string name = read_ident(code, i, &end);
      const std::size_t after = skip_ws(code, end);
      const std::size_t name_pos = i;
      i = end - 1;  // resume after the identifier either way
      if (after >= f.body_end || code[after] != '(') continue;
      if (call_keyword(name) || std::isdigit(static_cast<unsigned char>(name[0])) != 0) {
        continue;
      }

      // Resolve to definitions, narrowing by locality: same file beats same
      // module beats anywhere. Self-edges are kept (recursion is real).
      std::vector<int> candidates = index.definitions_named(name);
      if (candidates.empty()) continue;
      auto narrow = [&](auto pred) {
        std::vector<int> kept;
        for (const int id : candidates) {
          if (pred(index.functions[static_cast<std::size_t>(id)])) kept.push_back(id);
        }
        if (!kept.empty()) candidates = std::move(kept);
      };
      narrow([&](const FunctionDef& cand) { return cand.file == f.file; });
      narrow([&](const FunctionDef& cand) {
        const std::string& m = index.modules[static_cast<std::size_t>(cand.file)];
        return !m.empty() && m == index.modules[static_cast<std::size_t>(f.file)];
      });

      const int line = line_of(p, name_pos);
      for (const int callee : candidates) {
        if (!seen.insert(callee).second) continue;
        g.calls[caller].push_back(CallSite{callee, line});
        g.callers[static_cast<std::size_t>(callee)].push_back(static_cast<int>(caller));
      }
    }
  }
  for (auto& sites : g.calls) {
    std::sort(sites.begin(), sites.end(), [](const CallSite& a, const CallSite& b) {
      return std::tie(a.line, a.callee) < std::tie(b.line, b.callee);
    });
  }
  for (auto& ids : g.callers) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return g;
}

bool is_taint_sink(const SymbolIndex& index, const FunctionDef& f) {
  static const std::set<std::string_view> kSinkNames = {
      "to_json", "to_binary", "to_prometheus", "write_json", "write_chrome_json", "write_jsonl"};
  if (kSinkNames.count(f.name) > 0) return true;
  // shard_io writers: anything that pushes bytes into the merge-ordered shard
  // stream is an output boundary, whatever it is called.
  const std::string& path = index.files[static_cast<std::size_t>(f.file)].file->path;
  return path_contains(path, "shard_io") && f.name.starts_with("write");
}

std::vector<TaintSource> collect_taint_sources(const SymbolIndex& index) {
  std::vector<TaintSource> out;
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const Prepared& p = index.files[fi];
    // netsim owns the seeded sim clock; obs/runtime is the sanctioned
    // wall-clock telemetry domain (its outflow is policed structurally by
    // obs-domain-separation instead of token taint).
    const bool clock_exempt = path_contains(p.file->path, "netsim/") ||
                           path_contains(p.file->path, "obs/runtime");
    const std::string_view code = p.code;

    auto add = [&](std::size_t pos, std::string desc, std::string_view base_rule) {
      const int line = line_of(p, pos);
      if (is_allowed(p, line, kTaintRule)) return;
      if (!base_rule.empty() && is_allowed(p, line, base_rule)) return;
      out.push_back(TaintSource{static_cast<int>(fi), pos, line, std::move(desc),
                                std::string(base_rule)});
    };

    if (!clock_exempt) {
      // Wall-clock / ambient randomness: the same token set as the
      // determinism-wallclock rule, so one suppression at the origin covers
      // both the token rule and any taint path out of it.
      for (const std::string_view word :
           {std::string_view("random_device"), std::string_view("srand"),
            std::string_view("gettimeofday"), std::string_view("clock_gettime"),
            std::string_view("localtime"), std::string_view("gmtime"),
            std::string_view("mktime")}) {
        for (std::size_t pos = find_word(code, word); pos != std::string_view::npos;
             pos = find_word(code, word, pos + 1)) {
          add(pos, "'" + std::string(word) + "'", kWallclockRule);
        }
      }
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
          add(pos, "'" + std::string(word) + "()'", kWallclockRule);
        }
      }
      for (const std::string_view clk :
           {std::string_view("system_clock"), std::string_view("steady_clock"),
            std::string_view("high_resolution_clock")}) {
        for (std::size_t pos = find_word(code, clk); pos != std::string_view::npos;
             pos = find_word(code, clk, pos + 1)) {
          std::size_t i = skip_ws(code, pos + clk.size());
          if (i + 1 < code.size() && code[i] == ':' && code[i + 1] == ':') {
            i = skip_ws(code, i + 2);
            if (word_at(code, i, "now")) add(pos, "'" + std::string(clk) + "::now()'",
                                             kWallclockRule);
          }
        }
      }
    }

    // std::this_thread::get_id(): thread identity varies run to run and with
    // the --threads split. No base token rule covers this — taint-only.
    for (std::size_t pos = find_word(code, "get_id"); pos != std::string_view::npos;
         pos = find_word(code, "get_id", pos + 1)) {
      const std::size_t before = prev_nonspace(code, pos);
      if (before == std::string_view::npos || code[before] != ':') continue;
      add(pos, "'this_thread::get_id()'", "");
    }

    // Pointer-to-integer casts: addresses differ across runs; once an address
    // becomes an integer it can silently reach keys, hashes, and output.
    for (std::size_t pos = find_word(code, "reinterpret_cast");
         pos != std::string_view::npos; pos = find_word(code, "reinterpret_cast", pos + 1)) {
      const std::size_t open = skip_ws(code, pos + 16);
      if (open >= code.size() || code[open] != '<') continue;
      const std::size_t close = match_angle(code, open);
      if (close == std::string_view::npos) continue;
      const std::string_view target = code.substr(open + 1, close - open - 2);
      if (contains_word(target, "uintptr_t") || contains_word(target, "intptr_t")) {
        add(pos, "reinterpret_cast of a pointer to an integer", "");
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const TaintSource& a, const TaintSource& b) {
    return std::tie(a.file, a.pos) < std::tie(b.file, b.pos);
  });
  return out;
}

void check_determinism_taint(const SymbolIndex& index, const CallGraph& graph,
                             const std::vector<TaintSource>& extra_sources,
                             std::vector<Diagnostic>& out) {
  std::vector<TaintSource> sources = collect_taint_sources(index);
  sources.insert(sources.end(), extra_sources.begin(), extra_sources.end());

  for (const TaintSource& src : sources) {
    const int origin = enclosing_function(index, src.file, src.pos);
    if (origin < 0) continue;  // namespace-scope token: no call path to walk

    // BFS from the origin function over caller edges to the nearest sink.
    // parent[] reconstructs the shortest origin-to-sink path.
    std::map<int, int> parent;
    parent[origin] = origin;
    std::deque<int> queue{origin};
    int sink = -1;
    while (!queue.empty() && sink < 0) {
      const int cur = queue.front();
      queue.pop_front();
      if (is_taint_sink(index, index.functions[static_cast<std::size_t>(cur)])) {
        sink = cur;
        break;
      }
      for (const int caller : graph.callers[static_cast<std::size_t>(cur)]) {
        if (parent.emplace(caller, cur).second) queue.push_back(caller);
      }
    }
    if (sink < 0) continue;  // value never reaches a serialization boundary

    // Path sink -> origin via parent[], then reverse to origin -> sink.
    std::vector<std::string> trace;
    for (int cur = sink;; cur = parent[cur]) {
      trace.push_back(index.functions[static_cast<std::size_t>(cur)].qualified());
      if (cur == parent[cur]) break;
    }
    std::reverse(trace.begin(), trace.end());

    std::string path_str;
    for (const std::string& fn : trace) {
      if (!path_str.empty()) path_str += " -> ";
      path_str += fn + "()";
    }
    const FunctionDef& origin_fn = index.functions[static_cast<std::size_t>(origin)];
    const FunctionDef& sink_fn = index.functions[static_cast<std::size_t>(sink)];
    Diagnostic d;
    d.path = index.files[static_cast<std::size_t>(src.file)].file->path;
    d.line = src.line;
    d.rule = std::string(kTaintRule);
    d.key = origin_fn.qualified() + "->" + sink_fn.qualified();
    d.trace = std::move(trace);
    d.message = "nondeterministic value (" + src.desc + ") originating in '" +
                origin_fn.qualified() + "' reaches serialization sink '" +
                sink_fn.qualified() + "' via " + path_str +
                ": run output would differ across runs or --threads splits; make the "
                "source deterministic (netsim clock / seeded RNG / sorted emission) or "
                "suppress at this line — the true origin — with a rationale";
    out.push_back(std::move(d));
  }
}

void check_obs_domain_separation(const SymbolIndex& index, const CallGraph& graph,
                                 std::vector<Diagnostic>& out) {
  for (std::size_t origin = 0; origin < index.functions.size(); ++origin) {
    const FunctionDef& origin_fn = index.functions[origin];
    if (!origin_fn.defined || !runtime_domain_file(index, origin_fn.file)) continue;

    // BFS over caller edges from the runtime-domain function to the nearest
    // deterministic sink. Sinks inside the runtime domain (the heartbeat and
    // manifest codecs) and to_prometheus (the sanctioned scrape surface) are
    // transparent: telemetry may flow through them, so the walk continues.
    std::map<int, int> parent;
    parent[static_cast<int>(origin)] = static_cast<int>(origin);
    std::deque<int> queue{static_cast<int>(origin)};
    int sink = -1;
    while (!queue.empty() && sink < 0) {
      const int cur = queue.front();
      queue.pop_front();
      const FunctionDef& fn = index.functions[static_cast<std::size_t>(cur)];
      if (cur != static_cast<int>(origin) && is_taint_sink(index, fn) &&
          !runtime_domain_file(index, fn.file) && fn.name != "to_prometheus") {
        sink = cur;
        break;
      }
      for (const int caller : graph.callers[static_cast<std::size_t>(cur)]) {
        if (parent.emplace(caller, cur).second) queue.push_back(caller);
      }
    }
    if (sink < 0) continue;

    const FunctionDef& sink_fn = index.functions[static_cast<std::size_t>(sink)];
    const Prepared& sink_file = index.files[static_cast<std::size_t>(sink_fn.file)];
    if (is_allowed(sink_file, sink_fn.line, kObsDomainRule)) continue;

    std::vector<std::string> trace;
    for (int cur = sink;; cur = parent[cur]) {
      trace.push_back(index.functions[static_cast<std::size_t>(cur)].qualified());
      if (cur == parent[cur]) break;
    }
    std::reverse(trace.begin(), trace.end());

    std::string path_str;
    for (const std::string& fn : trace) {
      if (!path_str.empty()) path_str += " -> ";
      path_str += fn + "()";
    }
    Diagnostic d;
    d.path = sink_file.file->path;
    d.line = sink_fn.line;
    d.rule = std::string(kObsDomainRule);
    d.key = origin_fn.qualified() + "->" + sink_fn.qualified();
    d.trace = std::move(trace);
    d.message = "wall-clock runtime telemetry ('" + origin_fn.qualified() +
                "', defined in the obs/runtime domain) reaches deterministic "
                "serialization sink '" + sink_fn.qualified() + "' via " + path_str +
                ": runtime counters and host-clock timings must stay out of "
                "results/trace/metrics output (byte-identity contract); route the "
                "data through heartbeat/manifest files or to_prometheus instead";
    out.push_back(std::move(d));
  }
}

}  // namespace ednsm::lint
