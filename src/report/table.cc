#include "report/table.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ednsm::report {

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table: row width does not match header");
  }
  rows_.push_back(std::move(row));
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out.append(row[c]);
      if (c + 1 < row.size()) out.append(widths[c] - row[c].size() + 2, ' ');
    }
    out.push_back('\n');
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  out.append(total, '-');
  out.push_back('\n');
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string fmt(double value, int decimals) {
  if (std::isnan(value)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace ednsm::report
