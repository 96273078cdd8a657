// Console table printer and TSV writer for the benchmark harnesses. Each
// bench prints paper-style rows to stdout and mirrors them into
// bench_out/*.tsv for plotting.

#ifndef KMEANSLL_EVAL_TABLE_H_
#define KMEANSLL_EVAL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace kmeansll::eval {

/// Column-aligned plain-text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; must have as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Renders with a header rule and 2-space column gaps.
  void Print(std::ostream& os) const;

  /// Writes headers + rows as tab-separated values.
  Status WriteTsv(const std::string& path) const;

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats helpers shared by the benches.
std::string Cell(double value, int precision = 3);
std::string CellScaled(double value, double scale, int precision = 0);
std::string CellInt(int64_t value);

/// Creates bench_out/ (relative to the working directory) if needed and
/// returns "<dir>/<name>.tsv".
std::string TsvOutputPath(const std::string& name);

}  // namespace kmeansll::eval

#endif  // KMEANSLL_EVAL_TABLE_H_
