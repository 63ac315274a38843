// InternTable: a tiny append-only symbol table mapping strings (vantage ids,
// resolver hostnames) to dense u32 symbols.
//
// Campaign post-processing groups hundreds of thousands of records by
// (vantage, resolver); comparing interned symbols (one integer compare, and
// two symbols pack into a u64 map key) replaces per-record std::string
// compares and pair<string,string> key copies on the accumulation path.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ednsm::util {

class InternTable {
 public:
  using Symbol = std::uint32_t;

  InternTable() = default;

  // The index keys are string_views into names_, so copies must rebuild the
  // index over their own storage. Moves are safe as-is: deque move steals the
  // underlying buffers without relocating the strings the views point at.
  InternTable(const InternTable& other) : names_(other.names_) { rebuild_index(); }
  InternTable& operator=(const InternTable& other) {
    if (this != &other) {
      names_ = other.names_;
      rebuild_index();
    }
    return *this;
  }
  InternTable(InternTable&&) noexcept = default;
  InternTable& operator=(InternTable&&) = default;

  // Returns the symbol for `s`, interning it on first sight. Symbols are
  // assigned densely in first-intern order, so a table fed the same strings
  // in the same order yields the same symbols (determinism matters: symbols
  // feed sorted/merged outputs).
  Symbol intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const Symbol sym = static_cast<Symbol>(names_.size());
    // deque never relocates elements, so the string_view key stays valid.
    const std::string& stored = names_.emplace_back(s);
    index_.emplace(std::string_view(stored), sym);
    return sym;
  }

  // Lookup without interning; nullopt when never seen.
  [[nodiscard]] std::optional<Symbol> find(std::string_view s) const {
    const auto it = index_.find(s);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] const std::string& name(Symbol sym) const { return names_.at(sym); }

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  // Pack two symbols into one map key (vantage-major).
  [[nodiscard]] static constexpr std::uint64_t pair_key(Symbol a, Symbol b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

 private:
  void rebuild_index() {
    index_.clear();
    index_.reserve(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i) {
      index_.emplace(std::string_view(names_[i]), static_cast<Symbol>(i));
    }
  }

  std::deque<std::string> names_;
  std::unordered_map<std::string_view, Symbol> index_;
};

}  // namespace ednsm::util
