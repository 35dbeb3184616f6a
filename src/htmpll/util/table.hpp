// Minimal column-oriented result table: aligned console output for the
// bench harness plus CSV export so figures can be re-plotted offline.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace htmpll {

class Table {
 public:
  /// Column headers fix the column count; every row must match it.
  explicit Table(std::vector<std::string> headers);

  /// Pre-allocates row storage; call before bulk add_row loops so a
  /// sweep-sized table never reallocates mid-fill.
  void reserve(std::size_t row_count) { rows_.reserve(row_count); }

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with %.6g.
  void add_row(const std::vector<double>& cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }

  /// Aligned, human-readable rendering.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (no quoting needed for our numeric content).
  void write_csv(std::ostream& os) const;
  /// write_csv() into `path`; throws std::invalid_argument naming the
  /// path when the file cannot be opened or the write fails.
  void write_csv_file(const std::string& path) const;

  static std::string fmt(double v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace htmpll
