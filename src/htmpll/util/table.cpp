#include "htmpll/util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "htmpll/util/check.hpp"

namespace htmpll {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  HTMPLL_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  HTMPLL_REQUIRE(cells.size() == headers_.size(),
                 "row width must match header count");
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::vector<double>& cells) {
  std::vector<std::string> text;
  text.reserve(cells.size());
  for (double v : cells) text.push_back(fmt(v));
  add_row(std::move(text));
}

std::string Table::fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size()) {
        os << std::string(width[c] - cells[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size()) os << ',';
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv_file(const std::string& path) const {
  std::ofstream os(path);
  HTMPLL_REQUIRE(os.good(), "cannot open CSV output file: " + path);
  write_csv(os);
  os.flush();
  HTMPLL_REQUIRE(os.good(), "cannot write CSV output file: " + path);
}

}  // namespace htmpll
