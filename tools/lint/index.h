// Pass 1 of the ednsm_lint analyzer: the symbol index.
//
// The analyzer runs three passes (see DESIGN.md "Static analysis"):
//   1. index  — parse every translation unit into the lightweight model in
//               this header: blanked source text, suppression map, structs,
//               classes and their fields, function definitions/declarations,
//               includes, and module ownership (the src/<module>/ directory).
//   2. graph  — an approximate intraproject call graph over the functions
//               (tools/lint/graph.h).
//   3. rules  — token rules, codec/phase checks, the determinism taint
//               dataflow, and the module-layering rules all consume the same
//               index (tools/lint/lint.cc, graph.cc, layers.cc).
//
// Everything here is a token-level approximation, not a compiler frontend:
// good enough to resolve `Struct::method`, to pair declarations with their
// definitions, and to walk call edges by name — and cheap enough to run over
// the whole tree in well under a second.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ednsm::lint {

// A source file handed to the analyzer. `path` is used for diagnostics and
// for path-keyed rule behavior (header-only rules key off the extension;
// the wall-clock rule exempts the netsim clock layer; layering keys off the
// src/<module>/ component), so tests may pass synthetic paths with fixture
// content.
struct SourceFile {
  std::string path;
  std::string content;
};

// Preprocessed view of one file: literals and comments blanked (offsets and
// newlines preserved) plus the suppression map parsed out of the comments.
struct Prepared {
  const SourceFile* file = nullptr;
  std::string code;                             // literals/comments blanked
  std::string code_no_comments;                 // strings kept, comments blanked
  std::vector<std::size_t> line_starts;         // byte offset of each line start
  std::map<int, std::set<std::string>> allows;  // line -> suppressed rule IDs
};

[[nodiscard]] Prepared prepare(const SourceFile& file);
[[nodiscard]] int line_of(const Prepared& p, std::size_t offset);
[[nodiscard]] bool is_allowed(const Prepared& p, int line, std::string_view rule);

// --- Token helpers over blanked code (shared by every pass). ---
[[nodiscard]] bool ident_char(char c);
[[nodiscard]] bool word_at(std::string_view code, std::size_t pos, std::string_view word);
[[nodiscard]] std::size_t find_word(std::string_view code, std::string_view word,
                                    std::size_t from = 0);
[[nodiscard]] bool contains_word(std::string_view code, std::string_view word);
[[nodiscard]] std::size_t skip_ws(std::string_view code, std::size_t pos);
[[nodiscard]] std::size_t prev_nonspace(std::string_view code, std::size_t pos);
[[nodiscard]] std::string read_ident(std::string_view code, std::size_t pos,
                                     std::size_t* end = nullptr);
[[nodiscard]] std::size_t match_angle(std::string_view code, std::size_t open);
[[nodiscard]] std::size_t match_block(std::string_view code, std::size_t open, char open_ch,
                                      char close_ch);
[[nodiscard]] bool is_header(std::string_view path);
[[nodiscard]] bool path_contains(std::string_view path, std::string_view needle);

// --- Struct model: fields + bodies, shared by codec-parity and phase-sum. ---

struct Field {
  std::string name;
  std::string decl;  // full declaration text (initializer braces stripped)
  int line = 0;
};

// A `struct` or `class` body. Classes are indexed so that their methods get
// a class name; their members start private.
struct StructDef {
  std::string name;
  bool is_class = false;
  const Prepared* where = nullptr;
  int file = -1;               // index into SymbolIndex::files
  int line = 0;
  std::size_t body_begin = 0;  // offset just past '{'
  std::size_t body_end = 0;    // offset of '}'
  std::vector<Field> fields;   // public, non-static, non-function members
  bool has_to_json = false;
  bool has_from_json = false;
  bool has_phase_sum = false;
};

// --- Function model: the unit the call graph and taint pass operate on. ---

struct FunctionDef {
  std::string name;        // unqualified
  std::string class_name;  // enclosing struct/class ("" for free functions)
  std::string ns;          // enclosing namespace path, best-effort ("a::b")
  int file = -1;           // index into SymbolIndex::files
  int line = 0;
  std::size_t pos = 0;     // offset of the name in the file
  bool defined = false;        // true when a body was found in the scanned set
  std::size_t body_begin = 0;  // offset just past '{' (valid when defined)
  std::size_t body_end = 0;    // offset of '}'

  [[nodiscard]] std::string qualified() const {
    return class_name.empty() ? name : class_name + "::" + name;
  }
};

// One `#include "..."` directive (system includes are not indexed: the
// analyzer only reasons about intraproject edges).
struct IncludeEdge {
  int line = 0;
  std::string target;  // as written, e.g. "core/spec.h"
};

struct SymbolIndex {
  std::vector<Prepared> files;  // parallel to the input file list
  std::vector<StructDef> structs;
  std::vector<FunctionDef> functions;             // definitions before declarations
  std::multimap<std::string, int> by_name;        // unqualified name -> function ids
  std::vector<std::vector<IncludeEdge>> includes; // per file
  std::vector<std::string> modules;               // per file; "" outside src/<m>/

  // All function ids named `name`, definitions only.
  [[nodiscard]] std::vector<int> definitions_named(std::string_view name) const;
};

// The module a path belongs to in the layering DAG: the directory component
// after `src/` ("src/core/spec.cc" -> "core"), or "" for files outside src/.
[[nodiscard]] std::string module_of(std::string_view path);

// Build the full index over a file set (pass 1).
[[nodiscard]] SymbolIndex build_index(const std::vector<SourceFile>& files);

// Find the body of `Struct::method` (out-of-line anywhere in the tree, or
// inline inside the struct body). Returns the body text with string literals
// intact, so JSON key names remain searchable.
[[nodiscard]] std::optional<std::string> method_body(const SymbolIndex& index, const StructDef& s,
                                                     std::string_view method);

// The function's body text with string literals intact ("" when !defined).
[[nodiscard]] std::string_view function_body_with_strings(const SymbolIndex& index,
                                                          const FunctionDef& f);

}  // namespace ednsm::lint
