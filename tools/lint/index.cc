#include "lint/index.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace ednsm::lint {

namespace {

// Parse `ednsm-lint: allow(a, b)` occurrences out of one comment's text and
// register them for `line` (they also cover line+1; see is_allowed).
void parse_suppressions(std::string_view comment, int line,
                        std::map<int, std::set<std::string>>& allows) {
  static constexpr std::string_view kMarker = "ednsm-lint:";
  std::size_t pos = 0;
  while ((pos = comment.find(kMarker, pos)) != std::string_view::npos) {
    pos += kMarker.size();
    const std::size_t open = comment.find("allow(", pos);
    if (open == std::string_view::npos) return;
    std::size_t i = open + 6;
    std::string id;
    for (; i < comment.size() && comment[i] != ')'; ++i) {
      const char c = comment[i];
      if (ident_char(c) || c == '-') {
        id.push_back(c);
      } else if (c == ',') {
        if (!id.empty()) allows[line].insert(id);
        id.clear();
      }  // whitespace: field separator noise, ignore
    }
    if (!id.empty()) allows[line].insert(id);
    pos = i;
  }
}

}  // namespace

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int line_of(const Prepared& p, std::size_t offset) {
  const auto it = std::upper_bound(p.line_starts.begin(), p.line_starts.end(), offset);
  return static_cast<int>(it - p.line_starts.begin());
}

Prepared prepare(const SourceFile& file) {
  Prepared p;
  p.file = &file;
  const std::string& src = file.content;
  p.code.assign(src.size(), ' ');
  p.code_no_comments.assign(src.size(), ' ');
  p.line_starts.push_back(0);

  enum class State { Code, LineComment, BlockComment, Str, Chr, RawStr };
  State state = State::Code;
  std::string raw_delim;     // for RawStr: the ")delim\"" terminator
  std::string comment_text;  // accumulated text of the current comment
  int comment_line = 1;
  int line = 1;

  auto finish_comment = [&] {
    parse_suppressions(comment_text, comment_line, p.allows);
    comment_text.clear();
  };

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '\n') {
      p.code[i] = '\n';
      p.code_no_comments[i] = '\n';
      ++line;
      p.line_starts.push_back(i + 1);
    }
    switch (state) {
      case State::Code:
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
          state = State::LineComment;
          comment_line = line;
          ++i;  // both slashes stay blanked
        } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
          state = State::BlockComment;
          comment_line = line;
          ++i;
        } else if (c == '"' && i >= 1 && src[i - 1] == 'R') {
          // Raw string literal R"delim( ... )delim"
          std::string delim;
          std::size_t j = i + 1;
          while (j < src.size() && src[j] != '(') delim.push_back(src[j++]);
          raw_delim = ")" + delim + "\"";
          p.code_no_comments[i] = c;
          state = State::RawStr;
        } else if (c == '"') {
          p.code_no_comments[i] = c;
          state = State::Str;
        } else if (c == '\'' && !(i >= 1 && ident_char(src[i - 1]))) {
          // A char literal, not a digit separator (1'000'000).
          p.code_no_comments[i] = c;
          state = State::Chr;
        } else if (c != '\n') {
          p.code[i] = c;
          p.code_no_comments[i] = c;
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          finish_comment();
          state = State::Code;
        } else {
          comment_text.push_back(c);
        }
        break;
      case State::BlockComment:
        if (c == '*' && i + 1 < src.size() && src[i + 1] == '/') {
          finish_comment();
          ++i;
          state = State::Code;
        } else {
          comment_text.push_back(c);
        }
        break;
      case State::Str:
        if (c != '\n') p.code_no_comments[i] = c;
        if (c == '\\' && i + 1 < src.size()) {
          p.code_no_comments[i + 1] = src[i + 1];
          ++i;
        } else if (c == '"') {
          state = State::Code;
        }
        break;
      case State::Chr:
        if (c != '\n') p.code_no_comments[i] = c;
        if (c == '\\' && i + 1 < src.size()) {
          p.code_no_comments[i + 1] = src[i + 1];
          ++i;
        } else if (c == '\'') {
          state = State::Code;
        }
        break;
      case State::RawStr:
        if (c != '\n') p.code_no_comments[i] = c;
        if (c == ')' && src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size() && i + k < src.size(); ++k) {
            if (src[i + k] != '\n') p.code_no_comments[i + k] = src[i + k];
          }
          i += raw_delim.size() - 1;
          state = State::Code;
        }
        break;
    }
  }
  if (state == State::LineComment || state == State::BlockComment) finish_comment();

  // Propagate suppressions downward through comment-only / blank lines, so a
  // marker anywhere in the comment block directly above a statement covers
  // the statement's first code line.
  auto line_is_blank = [&](int ln) {
    if (ln < 1 || ln > static_cast<int>(p.line_starts.size())) return false;
    const std::size_t begin = p.line_starts[static_cast<std::size_t>(ln - 1)];
    const std::size_t end = ln < static_cast<int>(p.line_starts.size())
                                ? p.line_starts[static_cast<std::size_t>(ln)]
                                : p.code.size();
    for (std::size_t i = begin; i < end; ++i) {
      if (std::isspace(static_cast<unsigned char>(p.code[i])) == 0) return false;
    }
    return true;
  };
  for (const auto& [ln, rules_at] : std::map<int, std::set<std::string>>(p.allows)) {
    int l = ln;
    while (line_is_blank(l) && l < ln + 20) ++l;
    if (l != ln) p.allows[l].insert(rules_at.begin(), rules_at.end());
  }
  return p;
}

bool is_allowed(const Prepared& p, int line, std::string_view rule) {
  for (const int l : {line, line - 1}) {
    const auto it = p.allows.find(l);
    if (it != p.allows.end() && it->second.count(std::string(rule)) > 0) return true;
  }
  return false;
}

bool word_at(std::string_view code, std::size_t pos, std::string_view word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && ident_char(code[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= code.size() || !ident_char(code[end]);
}

std::size_t find_word(std::string_view code, std::string_view word, std::size_t from) {
  for (std::size_t pos = code.find(word, from); pos != std::string_view::npos;
       pos = code.find(word, pos + 1)) {
    if (word_at(code, pos, word)) return pos;
  }
  return std::string_view::npos;
}

bool contains_word(std::string_view code, std::string_view word) {
  return find_word(code, word) != std::string_view::npos;
}

std::size_t skip_ws(std::string_view code, std::size_t pos) {
  while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos])) != 0) ++pos;
  return pos;
}

std::size_t prev_nonspace(std::string_view code, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return pos;
  }
  return std::string_view::npos;
}

std::string read_ident(std::string_view code, std::size_t pos, std::size_t* end) {
  std::size_t i = pos;
  std::string out;
  while (i < code.size() && ident_char(code[i])) out.push_back(code[i++]);
  if (end != nullptr) *end = i;
  return out;
}

std::size_t match_angle(std::string_view code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (--depth == 0) return i + 1;
    } else if (c == ';' || c == '{' || c == '}') {
      return std::string_view::npos;
    }
  }
  return std::string_view::npos;
}

std::size_t match_block(std::string_view code, std::size_t open, char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == open_ch) ++depth;
    if (code[i] == close_ch && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

bool is_header(std::string_view path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

bool path_contains(std::string_view path, std::string_view needle) {
  return path.find(needle) != std::string_view::npos;
}

std::string module_of(std::string_view path) {
  std::size_t pos = 0;
  while ((pos = path.find("src/", pos)) != std::string_view::npos) {
    if (pos == 0 || path[pos - 1] == '/') {
      const std::size_t begin = pos + 4;
      const std::size_t slash = path.find('/', begin);
      if (slash == std::string_view::npos) return "";  // a file directly in src/
      return std::string(path.substr(begin, slash - begin));
    }
    ++pos;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Struct collection (fields + codec markers), moved from the old scanner.
// ---------------------------------------------------------------------------

namespace {

// Parse the public data members out of a struct body. Walks depth-1
// statements; `{...}` groups at depth 1 are skipped (function bodies and
// brace initializers alike) and the statement is kept only when a ';'
// terminates it afterwards.
void parse_fields(const Prepared& p, StructDef& s) {
  const std::string_view code = p.code;
  bool collecting = !s.is_class;  // struct scope starts public, class scope private
  std::string chunk;
  std::size_t chunk_begin = s.body_begin;
  bool saw_braces = false;

  for (std::size_t i = s.body_begin; i < s.body_end; ++i) {
    const char c = code[i];
    if (c == '{' || c == '(') {
      // Skip nested blocks wholesale. Parens are kept in the chunk as a
      // marker (function detection) but their contents are dropped.
      const char close = c == '{' ? '}' : ')';
      const std::size_t end = match_block(code, i, c, close);
      if (end == std::string_view::npos || end > s.body_end) break;
      if (c == '(') {
        chunk += "()";
      } else if (const std::size_t call = chunk.find("()");
                 call != std::string::npos && call < chunk.find('=')) {
        // An inline function body ends its member without a ';': start the
        // next member here, so an access specifier after it is recognized.
        chunk.clear();
        chunk_begin = end;
      } else {
        saw_braces = true;
      }
      i = end - 1;
      continue;
    }
    if (c == ':' && (i + 1 >= code.size() || code[i + 1] != ':') &&
        (i == 0 || code[i - 1] != ':')) {
      // Access specifier boundary: the chunk so far is `public` / `private` /
      // `protected` (or a bit-field / base clause, which we don't have).
      std::string label = chunk;
      label.erase(
          std::remove_if(label.begin(), label.end(),
                         [](char ch) { return std::isspace(static_cast<unsigned char>(ch)) != 0; }),
          label.end());
      if (label == "public") collecting = true;
      if (label == "private" || label == "protected") collecting = false;
      chunk.clear();
      chunk_begin = i + 1;
      saw_braces = false;
      continue;
    }
    if (c == ';') {
      std::string stmt = chunk;
      chunk.clear();
      const std::size_t stmt_begin = chunk_begin;
      chunk_begin = i + 1;
      const bool braced = saw_braces;
      saw_braces = false;
      if (!collecting) continue;
      // Strip attributes like [[nodiscard]].
      for (std::size_t a = stmt.find("[["); a != std::string::npos; a = stmt.find("[[")) {
        const std::size_t b = stmt.find("]]", a);
        if (b == std::string::npos) break;
        stmt.erase(a, b - a + 2);
      }
      const std::size_t first = stmt.find_first_not_of(" \t\n");
      if (first == std::string::npos) continue;
      stmt = stmt.substr(first);
      if (stmt.starts_with("using ") || stmt.starts_with("static ") ||
          stmt.starts_with("friend ") || stmt.starts_with("typedef ") ||
          stmt.starts_with("template") || stmt.starts_with("enum ") ||
          stmt.starts_with("struct ") || stmt.starts_with("class ")) {
        continue;
      }
      // A '(' before any '=' marks a function declaration, not a field
      // (initializers may legitimately call functions after the '=').
      const std::size_t paren = stmt.find('(');
      const std::size_t eq = stmt.find('=');
      if (paren != std::string::npos && (eq == std::string::npos || paren < eq)) continue;
      if (stmt.find("operator") != std::string::npos) continue;
      // Field name: identifier before '=' when present, else the last
      // identifier (brace initializers were stripped above, so `T name{0}`
      // reduces to `T name`).
      std::string_view head(stmt);
      if (eq != std::string::npos) head = head.substr(0, eq);
      std::size_t end = head.size();
      while (end > 0 && !ident_char(head[end - 1])) --end;
      std::size_t begin = end;
      while (begin > 0 && ident_char(head[begin - 1])) --begin;
      if (begin == end) continue;
      std::string name(head.substr(begin, end - begin));
      if (name.empty() || (std::isdigit(static_cast<unsigned char>(name[0])) != 0)) continue;
      (void)braced;
      // Anchor the field's line at its first non-whitespace character, not at
      // the previous statement's terminator (blanked comments in between are
      // whitespace by now).
      const std::size_t anchor = std::min(skip_ws(code, stmt_begin), i);
      s.fields.push_back(Field{std::move(name), stmt, line_of(p, anchor)});
    } else {
      chunk.push_back(c);
    }
  }
}

// Every `struct Name ... {` or `class Name ... {` body in one file.
void collect_bodies(SymbolIndex& index, std::size_t fi, std::string_view keyword) {
  const Prepared& p = index.files[fi];
  const std::string_view code = p.code;
  const bool is_class = keyword == "class";
  for (std::size_t pos = find_word(code, keyword); pos != std::string_view::npos;
       pos = find_word(code, keyword, pos + 1)) {
    if (is_class) {
      // `enum class` is an enumeration; `<class T>` a template parameter.
      const std::size_t before = prev_nonspace(code, pos);
      if (before != std::string_view::npos &&
          (code[before] == '<' || code[before] == ',' ||
           (before >= 3 && word_at(code, before - 3, "enum")))) {
        continue;
      }
    }
    std::size_t after = skip_ws(code, pos + keyword.size());
    std::size_t name_end = after;
    const std::string name = read_ident(code, after, &name_end);
    if (name.empty()) continue;
    // Scan forward over `final` / base clause to '{'; a ';' first means a
    // forward declaration, a '(' an elaborated type in a signature.
    std::size_t brace = name_end;
    while (brace < code.size() && code[brace] != '{' && code[brace] != ';' && code[brace] != '(') {
      ++brace;
    }
    if (brace >= code.size() || code[brace] != '{') continue;
    const std::size_t end = match_block(code, brace, '{', '}');
    if (end == std::string_view::npos) continue;
    StructDef s;
    s.name = name;
    s.is_class = is_class;
    s.where = &p;
    s.file = static_cast<int>(fi);
    s.line = line_of(p, pos);
    s.body_begin = brace + 1;
    s.body_end = end - 1;
    const std::string_view body = code.substr(s.body_begin, s.body_end - s.body_begin);
    s.has_to_json = contains_word(body, "to_json");
    s.has_from_json = contains_word(body, "from_json");
    s.has_phase_sum = contains_word(body, "phase_sum");
    parse_fields(p, s);
    index.structs.push_back(std::move(s));
  }
}

void collect_structs(SymbolIndex& index) {
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    collect_bodies(index, fi, "struct");
    collect_bodies(index, fi, "class");
  }
}

// ---------------------------------------------------------------------------
// Function collection. Token heuristic: an identifier followed by a balanced
// parameter list whose trailer (specifiers, ctor init list, trailing return)
// ends in '{' is a definition; one ending in ';' or '= default/delete/0;' is
// a declaration when a type-ish token precedes the name (or it is
// class-qualified / inside a class body). Lambdas, control keywords, and
// member-access calls are filtered out.
// ---------------------------------------------------------------------------

bool is_control_keyword(std::string_view w) {
  static const std::set<std::string_view> kKeywords = {
      "if",     "for",     "while",    "switch",        "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "assert", "new",
      "delete", "throw",   "operator", "alignas",       "defined"};
  return kKeywords.count(w) > 0;
}

struct NamespaceBlock {
  std::string name;  // may be "a::b" for compound declarations
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<NamespaceBlock> collect_namespaces(const Prepared& p) {
  std::vector<NamespaceBlock> out;
  const std::string_view code = p.code;
  for (std::size_t pos = find_word(code, "namespace"); pos != std::string_view::npos;
       pos = find_word(code, "namespace", pos + 1)) {
    std::size_t i = skip_ws(code, pos + 9);
    std::string name;
    // `namespace a::b {`, `namespace {`, or `namespace x = y;` (skipped).
    while (i < code.size()) {
      std::size_t end = i;
      const std::string part = read_ident(code, i, &end);
      if (!part.empty()) {
        name += name.empty() ? part : "::" + part;
        i = skip_ws(code, end);
      }
      if (i < code.size() && code[i] == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        i = skip_ws(code, i + 2);
        continue;
      }
      break;
    }
    if (i >= code.size() || code[i] != '{') continue;  // alias or using-directive
    const std::size_t end = match_block(code, i, '{', '}');
    if (end == std::string_view::npos) continue;
    out.push_back(NamespaceBlock{std::move(name), i + 1, end - 1});
  }
  return out;
}

std::string namespace_at(const std::vector<NamespaceBlock>& blocks, std::size_t offset) {
  std::string ns;
  for (const NamespaceBlock& b : blocks) {
    if (b.begin <= offset && offset < b.end && !b.name.empty()) {
      ns += ns.empty() ? b.name : "::" + b.name;
    }
  }
  return ns;
}

// Skip a constructor initializer list starting at the ':' at `pos`; returns
// the offset of the body '{' (or npos when the shape is not an init list).
std::size_t skip_init_list(std::string_view code, std::size_t pos) {
  std::size_t i = skip_ws(code, pos + 1);
  while (i < code.size()) {
    // Entry: qualified, possibly templated name, then (...) or {...}.
    bool saw_name = false;
    while (i < code.size()) {
      std::size_t end = i;
      if (read_ident(code, i, &end).empty()) break;
      saw_name = true;
      i = skip_ws(code, end);
      if (i + 1 < code.size() && code[i] == ':' && code[i + 1] == ':') {
        i = skip_ws(code, i + 2);
        continue;
      }
      if (i < code.size() && code[i] == '<') {
        const std::size_t close = match_angle(code, i);
        if (close == std::string_view::npos) return std::string_view::npos;
        i = skip_ws(code, close);
      }
      break;
    }
    if (!saw_name) return std::string_view::npos;
    if (i >= code.size() || (code[i] != '(' && code[i] != '{')) return std::string_view::npos;
    const std::size_t close =
        match_block(code, i, code[i], code[i] == '(' ? ')' : '}');
    if (close == std::string_view::npos) return std::string_view::npos;
    i = skip_ws(code, close);
    if (i < code.size() && code[i] == ',') {
      i = skip_ws(code, i + 1);
      continue;
    }
    return i < code.size() && code[i] == '{' ? i : std::string_view::npos;
  }
  return std::string_view::npos;
}

void collect_functions(SymbolIndex& index) {
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const Prepared& p = index.files[fi];
    const std::string_view code = p.code;
    const std::vector<NamespaceBlock> namespaces = collect_namespaces(p);
    // Body ends of the definitions enclosing the scan position, innermost
    // last. Inside a body a `name(...);` is a call statement, never a
    // declaration.
    std::vector<std::size_t> open_bodies;

    for (std::size_t open = code.find('('); open != std::string_view::npos;
         open = code.find('(', open + 1)) {
      while (!open_bodies.empty() && open_bodies.back() <= open) open_bodies.pop_back();
      // Identifier directly before the '('.
      const std::size_t last = prev_nonspace(code, open);
      if (last == std::string_view::npos || !ident_char(code[last])) continue;
      std::size_t name_begin = last;
      while (name_begin > 0 && ident_char(code[name_begin - 1])) --name_begin;
      const std::string name(code.substr(name_begin, last - name_begin + 1));
      if (name.empty() || is_control_keyword(name) ||
          std::isdigit(static_cast<unsigned char>(name[0])) != 0) {
        continue;
      }

      // Member-access calls (`x.f(`, `p->f(`) are never definitions or
      // declarations; destructors (`~F(`) are uninteresting to the graph.
      std::size_t before = prev_nonspace(code, name_begin);
      if (before != std::string_view::npos &&
          (code[before] == '.' || code[before] == '~' ||
           (code[before] == '>' && before > 0 && code[before - 1] == '-'))) {
        continue;
      }

      // Class qualifier: `Cls::name(`. Walk the `::`-chain backwards; the
      // component directly before the name is the class (earlier components
      // are namespaces — good enough for an approximate index).
      std::string class_name;
      bool qualified = false;
      if (before != std::string_view::npos && code[before] == ':' && before >= 1 &&
          code[before - 1] == ':') {
        qualified = true;
        const std::size_t q_last = prev_nonspace(code, before - 1);
        if (q_last != std::string_view::npos && ident_char(code[q_last])) {
          std::size_t q_begin = q_last;
          while (q_begin > 0 && ident_char(code[q_begin - 1])) --q_begin;
          class_name = std::string(code.substr(q_begin, q_last - q_begin + 1));
          before = prev_nonspace(code, q_begin);
        } else if (q_last != std::string_view::npos && code[q_last] == '>') {
          continue;  // templated qualifier — skip rather than misattribute
        }
      }

      const std::size_t params_end = match_block(code, open, '(', ')');
      if (params_end == std::string_view::npos) continue;

      // Trailer: specifiers, ctor init list, trailing return type.
      std::size_t t = skip_ws(code, params_end);
      bool gave_up = false;
      while (!gave_up && t < code.size()) {
        if (word_at(code, t, "const") || word_at(code, t, "final") ||
            word_at(code, t, "override") || word_at(code, t, "mutable") ||
            word_at(code, t, "noexcept") || word_at(code, t, "try")) {
          std::size_t adv = t;
          while (adv < code.size() && ident_char(code[adv])) ++adv;
          t = skip_ws(code, adv);
          if (t < code.size() && code[t] == '(') {  // noexcept(...)
            const std::size_t c2 = match_block(code, t, '(', ')');
            if (c2 == std::string_view::npos) {
              gave_up = true;
              break;
            }
            t = skip_ws(code, c2);
          }
          continue;
        }
        if (t + 1 < code.size() && code[t] == '-' && code[t + 1] == '>') {
          // Trailing return type: scan to the body/terminator at depth 0.
          std::size_t i = t + 2;
          int depth = 0;
          while (i < code.size()) {
            const char c = code[i];
            if (c == '(' || c == '[' || c == '<') ++depth;
            if (c == ')' || c == ']' || c == '>') --depth;
            if (depth == 0 && (c == '{' || c == ';' || c == '=')) break;
            ++i;
          }
          t = i;
          continue;
        }
        break;
      }
      if (gave_up || t >= code.size()) continue;
      if (code[t] == ':' && (t + 1 >= code.size() || code[t + 1] != ':')) {
        const std::size_t body = skip_init_list(code, t);
        if (body == std::string_view::npos) continue;
        t = body;
      }

      FunctionDef f;
      f.name = name;
      f.class_name = class_name;
      f.file = static_cast<int>(fi);
      f.line = line_of(p, name_begin);
      f.pos = name_begin;
      f.ns = namespace_at(namespaces, name_begin);

      if (code[t] == '{') {
        const std::size_t body_end = match_block(code, t, '{', '}');
        if (body_end == std::string_view::npos) continue;
        f.defined = true;
        f.body_begin = t + 1;
        f.body_end = body_end - 1;
        open_bodies.push_back(f.body_end);
      } else if (code[t] == ';' || code[t] == '=') {
        if (!open_bodies.empty()) continue;
        // Declaration (or `= default/delete/0`). Require a type-ish token
        // before the declaration — or a class qualifier / class-body scope
        // with the name starting a statement (constructors) — so call
        // statements `foo(x);` and initializers `d = std::chrono::hours(8);`
        // don't register as declarations.
        bool type_before =
            before != std::string_view::npos &&
            (ident_char(code[before]) || code[before] == '>' || code[before] == '*' ||
             code[before] == '&' || code[before] == ']');
        if (before != std::string_view::npos && ident_char(code[before])) {
          std::size_t tb = before;
          while (tb > 0 && ident_char(code[tb - 1])) --tb;
          const std::string_view tok = code.substr(tb, before - tb + 1);
          if (tok == "return" || tok == "co_return" || tok == "case" || tok == "goto") {
            type_before = false;
          }
        }
        bool in_class = qualified && !class_name.empty();
        if (!in_class) {
          for (const StructDef& s : index.structs) {
            if (s.file == static_cast<int>(fi) && s.body_begin <= name_begin &&
                name_begin < s.body_end) {
              in_class = true;
              break;
            }
          }
        }
        const bool starts_statement =
            before == std::string_view::npos || code[before] == ';' || code[before] == '{' ||
            code[before] == '}' ||
            (code[before] == ':' && (before == 0 || code[before - 1] != ':'));
        if (!type_before && !(in_class && starts_statement)) continue;
        f.defined = false;
      } else {
        continue;
      }

      // Inline method: adopt the innermost enclosing struct as the class.
      if (f.class_name.empty()) {
        const StructDef* innermost = nullptr;
        for (const StructDef& s : index.structs) {
          if (s.file != static_cast<int>(fi)) continue;
          if (s.body_begin <= name_begin && name_begin < s.body_end) {
            if (innermost == nullptr || s.body_begin > innermost->body_begin) innermost = &s;
          }
        }
        if (innermost != nullptr) f.class_name = innermost->name;
      }

      index.functions.push_back(std::move(f));
    }
  }

  // Definitions before declarations, then stable (file, line) order — the
  // call graph and taint pass resolve names to the first matching entries.
  std::stable_sort(index.functions.begin(), index.functions.end(),
                   [](const FunctionDef& a, const FunctionDef& b) {
                     if (a.defined != b.defined) return a.defined;
                     return std::tie(a.file, a.line) < std::tie(b.file, b.line);
                   });
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    index.by_name.emplace(index.functions[i].name, static_cast<int>(i));
  }
}

void collect_includes(SymbolIndex& index) {
  index.includes.resize(index.files.size());
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const Prepared& p = index.files[fi];
    const std::string_view code = p.code_no_comments;  // include targets are strings
    for (std::size_t pos = code.find("#include"); pos != std::string_view::npos;
         pos = code.find("#include", pos + 1)) {
      // Directive must be the first token on its line.
      const int line = line_of(p, pos);
      const std::size_t line_begin = p.line_starts[static_cast<std::size_t>(line - 1)];
      if (skip_ws(code, line_begin) != pos &&
          !(code[skip_ws(code, line_begin)] == '#' &&
            skip_ws(code, skip_ws(code, line_begin) + 1) == pos + 1)) {
        // Tolerate `#  include`; anything else on the line is not a directive.
        if (code.substr(line_begin, pos - line_begin).find_first_not_of(" \t#") !=
            std::string_view::npos) {
          continue;
        }
      }
      std::size_t i = skip_ws(code, pos + 8);
      if (i >= code.size() || code[i] != '"') continue;  // system includes ignored
      const std::size_t close = code.find('"', i + 1);
      if (close == std::string_view::npos) continue;
      index.includes[fi].push_back(
          IncludeEdge{line, std::string(code.substr(i + 1, close - i - 1))});
    }
  }
}

}  // namespace

std::vector<int> SymbolIndex::definitions_named(std::string_view name) const {
  std::vector<int> out;
  const auto [lo, hi] = by_name.equal_range(std::string(name));
  for (auto it = lo; it != hi; ++it) {
    if (functions[static_cast<std::size_t>(it->second)].defined) out.push_back(it->second);
  }
  return out;
}

SymbolIndex build_index(const std::vector<SourceFile>& files) {
  SymbolIndex index;
  index.files.reserve(files.size());
  index.modules.reserve(files.size());
  for (const SourceFile& f : files) {
    index.files.push_back(prepare(f));
    index.modules.push_back(module_of(f.path));
  }
  collect_structs(index);
  collect_functions(index);
  collect_includes(index);
  return index;
}

std::optional<std::string> method_body(const SymbolIndex& index, const StructDef& s,
                                       std::string_view method) {
  // Indexed lookup first: an out-of-line `Struct::method` definition.
  for (const int id : index.definitions_named(method)) {
    const FunctionDef& f = index.functions[static_cast<std::size_t>(id)];
    if (f.class_name != s.name) continue;
    const Prepared& p = index.files[static_cast<std::size_t>(f.file)];
    // Out-of-line definitions live outside the struct body; inline ones are
    // handled below (the indexed body range works for both, but prefer the
    // explicit inline scan for files where the struct was re-declared).
    return std::string(
        p.code_no_comments.substr(f.body_begin - 1, f.body_end + 1 - (f.body_begin - 1)));
  }
  // Inline definition inside the struct body (fallback for shapes the
  // function pass did not model).
  const std::string_view code = s.where->code;
  for (std::size_t pos = find_word(code, method, s.body_begin);
       pos != std::string_view::npos && pos < s.body_end;
       pos = find_word(code, method, pos + 1)) {
    std::size_t i = skip_ws(code, pos + method.size());
    if (i >= code.size() || code[i] != '(') continue;
    i = match_block(code, i, '(', ')');
    if (i == std::string_view::npos) continue;
    while (i < s.body_end && code[i] != '{' && code[i] != ';') ++i;
    if (i >= s.body_end || code[i] != '{') continue;
    const std::size_t end = match_block(code, i, '{', '}');
    if (end == std::string_view::npos) continue;
    return std::string(s.where->code_no_comments.substr(i, end - i));
  }
  return std::nullopt;
}

std::string_view function_body_with_strings(const SymbolIndex& index, const FunctionDef& f) {
  if (!f.defined) return {};
  const Prepared& p = index.files[static_cast<std::size_t>(f.file)];
  return std::string_view(p.code_no_comments).substr(f.body_begin, f.body_end - f.body_begin);
}

}  // namespace ednsm::lint
