// Plain-text table rendering for the reproduction reports.
#pragma once

#include <string>
#include <vector>

namespace ednsm::report {

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

  // Aligned monospace rendering with a separator under the header.
  [[nodiscard]] std::string to_text() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Format a double with `decimals` places ("12.3"); NaN renders as "-".
[[nodiscard]] std::string fmt(double value, int decimals = 1);

}  // namespace ednsm::report
