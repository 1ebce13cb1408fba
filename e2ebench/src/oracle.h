// Independent TPC-H answer oracle. At set-up the benchmark decodes each
// table once and computes the answers of the nine canned TpchQuerySet()
// queries with plain C++ loops over the decoded columns: no parser,
// planner or operator of the engine is involved. Every result the
// engine returns is checked against these answers.
#pragma once

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "format/batch.h"

namespace e2e {

/// One result cell: a number (ints widen to double) or a string.
struct Cell {
  bool is_string = false;
  double num = 0;
  std::string str;
};
using Row = std::vector<Cell>;

/// The expected answer of one query: every qualifying row in the query's
/// ORDER BY order (before LIMIT), the LIMIT (0 = none), and for each row
/// the index of the first row of its run of equal sort keys, so rows the
/// ORDER BY leaves tied may come back in either order.
struct Answer {
  std::vector<Row> rows;
  std::vector<size_t> run_start;
  size_t limit = 0;
  size_t ExpectedRows() const {
    return limit == 0 ? rows.size() : std::min(limit, rows.size());
  }
};

/// Relative tolerance for doubles: the engine sums in a different order.
inline constexpr double kRelTol = 1e-9;

/// Answers indexed like TpchQuerySet().
class TpchOracle {
 public:
  /// Decodes the tables of `db` and computes every answer.
  pixels::Status Build(pixels::Catalog* catalog, const std::string& db);

  size_t size() const { return answers_.size(); }
  const Answer& answer(size_t query) const { return answers_[query]; }

 private:
  std::vector<Answer> answers_;
};

/// Flattens an engine result into rows of cells.
std::vector<Row> ResultRows(const pixels::Table& table);

/// Empty when `actual` matches `expected`: the row count exactly, every
/// row in ORDER BY order (ties may permute), strings exactly, numbers
/// within kRelTol. Otherwise a description of the first difference.
std::string CompareAnswer(const Answer& expected,
                          const std::vector<Row>& actual);

/// Shows that CompareAnswer rejects wrong answers: for each perturbation
/// of `correct` (a number nudged past the tolerance, two rows of
/// distinct keys swapped, the last row dropped, a row added past the
/// LIMIT) it must report a difference. Returns the perturbations it
/// missed.
std::vector<std::string> CheckerMisses(const Answer& expected,
                                       const std::vector<Row>& correct);

}  // namespace e2e
