// ednsm_lint CLI: run the project-invariant static analyzer over source
// roots (default: lint::kTreeRoots, resolved against the current directory)
// and exit nonzero when any unsuppressed, non-baselined violation remains.
//
//   ednsm_lint                          # lint src tools bench examples
//                                       #   perfbench under $PWD
//   ednsm_lint path/to/src ...          # explicit roots (files or directories)
//   ednsm_lint --list-rules             # print the rule table and exit
//   ednsm_lint --layers FILE            # module DAG config (default:
//                                       #   tools/lint/layers.conf if present)
//   ednsm_lint --baseline FILE          # subtract accepted findings (default:
//                                       #   tools/lint/baseline.json if present)
//   ednsm_lint --no-layers|--no-baseline  # disable the defaults
//   ednsm_lint --json                   # machine-readable report on stdout
//   ednsm_lint --json-out FILE          # write the JSON report to FILE too
//   ednsm_lint --write-baseline FILE    # emit current findings as a baseline
//                                       #   skeleton (reasons stubbed) and exit
//
// Exit codes: 0 clean, 1 findings (or stale baseline entries), 2 usage/config.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "lint/baseline.h"
#include "lint/lint.h"

namespace {

constexpr ednsm::cli::Flag kFlags[] = {
    {"list-rules", "", "print the rule table and exit"},
    {"layers", "FILE", "module DAG config (default tools/lint/layers.conf)"},
    {"no-layers", "", "skip the default layers config"},
    {"baseline", "FILE", "accepted findings (default tools/lint/baseline.json)"},
    {"no-baseline", "", "skip the default baseline"},
    {"json", "", "print the report as JSON"},
    {"json-out", "FILE", "also write the JSON report to FILE"},
    {"write-baseline", "FILE", "write the findings as a baseline skeleton and exit"},
};
constexpr ednsm::cli::Command kCli{"ednsm_lint", "[ROOT...]", kFlags, 2};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = std::move(buf).str();
  return true;
}

int tool_main(const ednsm::cli::Args& args) {
  if (args.has("list-rules")) {
    for (const ednsm::lint::RuleInfo& r : ednsm::lint::rules()) {
      std::cout << r.id << ": " << r.summary << "\n";
    }
    return 0;
  }
  std::vector<std::string> roots = args.positionals();
  if (roots.empty()) roots.assign(ednsm::lint::kTreeRoots.begin(), ednsm::lint::kTreeRoots.end());
  std::string layers_path = args.text("layers", "");
  std::string baseline_path = args.text("baseline", "");
  const std::string json_out_path = args.text("json-out", "");
  const std::string write_baseline_path = args.text("write-baseline", "");
  const bool json_stdout = args.has("json");
  // Committed defaults, picked up when running from the repo root.
  if (layers_path.empty() && !args.has("no-layers") &&
      std::filesystem::is_regular_file(ednsm::lint::kLayersPath)) {
    layers_path = ednsm::lint::kLayersPath;
  }
  if (baseline_path.empty() && !args.has("no-baseline") &&
      std::filesystem::is_regular_file(ednsm::lint::kBaselinePath)) {
    baseline_path = ednsm::lint::kBaselinePath;
  }

  std::vector<ednsm::lint::SourceFile> files;
  for (const std::string& root : roots) {
    if (std::filesystem::is_regular_file(root)) {
      std::string content;
      if (!read_file(root, &content)) {
        std::cerr << "ednsm_lint: cannot read " << root << "\n";
        return 2;
      }
      files.push_back({root, std::move(content)});
    } else if (std::filesystem::is_directory(root)) {
      for (ednsm::lint::SourceFile& f : ednsm::lint::load_tree({root})) {
        files.push_back(std::move(f));
      }
    } else {
      std::cerr << "ednsm_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  if (files.empty()) {
    std::cerr << "ednsm_lint: no source files found under the given roots\n";
    return 2;
  }

  ednsm::lint::Options options;
  if (!layers_path.empty() && !read_file(layers_path, &options.layers_text)) {
    std::cerr << "ednsm_lint: cannot read layers config " << layers_path << "\n";
    return 2;
  }

  std::vector<ednsm::lint::Diagnostic> diags = ednsm::lint::run_lint(files, options);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    out << ednsm::lint::baseline_to_json(diags);
    if (!out) {
      std::cerr << "ednsm_lint: cannot write " << write_baseline_path << "\n";
      return 2;
    }
    std::cout << "ednsm_lint: wrote " << diags.size() << " finding"
              << (diags.size() == 1 ? "" : "s") << " to " << write_baseline_path
              << " (fill in the reasons before committing)\n";
    return 0;
  }

  std::vector<ednsm::lint::BaselineEntry> stale;
  std::size_t baselined = 0;
  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, &text)) {
      std::cerr << "ednsm_lint: cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    std::vector<ednsm::lint::BaselineEntry> entries;
    std::string error;
    if (!ednsm::lint::parse_baseline(text, &entries, &error)) {
      std::cerr << "ednsm_lint: " << baseline_path << ": " << error << "\n";
      return 2;
    }
    ednsm::lint::BaselineResult result =
        ednsm::lint::apply_baseline(std::move(diags), entries);
    diags = std::move(result.remaining);
    stale = std::move(result.stale);
    baselined = result.suppressed;
  }

  const std::string report = ednsm::lint::format_json(diags);
  if (!json_out_path.empty()) {
    std::ofstream out(json_out_path, std::ios::binary);
    out << report;
    if (!out) {
      std::cerr << "ednsm_lint: cannot write " << json_out_path << "\n";
      return 2;
    }
  }
  if (json_stdout) {
    std::cout << report;
  } else {
    for (const ednsm::lint::Diagnostic& d : diags) {
      std::cout << ednsm::lint::format(d) << "\n";
    }
  }
  for (const ednsm::lint::BaselineEntry& e : stale) {
    std::cerr << "ednsm_lint: stale baseline entry (matches no finding): rule=" << e.rule
              << " path=" << e.path << (e.key.empty() ? "" : " key=" + e.key)
              << " — remove it from " << baseline_path << "\n";
  }
  if (!diags.empty() || !stale.empty()) {
    if (!json_stdout) {
      std::cout << "ednsm_lint: " << diags.size() << " violation"
                << (diags.size() == 1 ? "" : "s") << " in " << files.size() << " files";
      if (baselined > 0) std::cout << " (" << baselined << " baselined)";
      if (!stale.empty()) std::cout << ", " << stale.size() << " stale baseline entries";
      std::cout << "\n";
    }
    return 1;
  }
  if (!json_stdout) {
    std::cout << "ednsm_lint: clean (" << files.size() << " files";
    if (baselined > 0) std::cout << ", " << baselined << " baselined findings";
    std::cout << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return ednsm::cli::run(kCli, argc, argv, tool_main); }
