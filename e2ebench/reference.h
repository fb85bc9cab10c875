// Reference evaluator and answer checker.
//
// The evaluator computes a query's answer straight from the Table columns:
// no optimizer, no statistics, no executor operators. It handles the query
// shapes the benchmark issues — one root table joined to any number of
// other tables through equi-join edges on the root (a star), local
// predicates, products as derived columns, GROUP BY on at most one column
// and COUNT/SUM — and looks up joined rows through a key map it builds
// itself. Anything else is refused with a status rather than guessed at.

#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "storage/table.h"
#include "util/status.h"

namespace e2ebench {

/// A query answer as a row multiset: `width` cells per row, rows stored
/// flat in ascending lexicographic order, so two answers compare with ==.
struct Answer {
  size_t width = 0;
  std::vector<int64_t> cells;

  size_t num_rows() const { return width == 0 ? 0 : cells.size() / width; }
  const int64_t* row(size_t i) const { return cells.data() + i * width; }
  bool operator==(const Answer& other) const {
    return cells == other.cells && (cells.empty() || width == other.width);
  }

  /// Puts the rows into canonical order.
  void SortRows();
};

/// What the benchmark keeps of an answer it has checked: the row count and
/// a 64-bit hash of the canonical cells. Memoizing digests rather than
/// whole answers keeps the checker's own memory out of the peak RSS metric.
struct AnswerDigest {
  size_t rows = 0;
  uint64_t hash = 0;

  bool operator==(const AnswerDigest& other) const {
    return rows == other.rows && hash == other.hash;
  }
};

AnswerDigest Digest(const Answer& answer);

/// True when `spec` has an aggregation node. Aggregated output has the
/// fixed layout [group keys..., aggregates...]; other output has a
/// plan-dependent column order the engine does not report.
bool IsAggregate(const rqp::QuerySpec& spec);

/// Canonicalizes engine output. Non-aggregate rows have their cells sorted
/// first, so the comparison does not depend on the plan's column order.
Answer CanonicalAnswer(const std::vector<rqp::RowBatch>& batches,
                       bool aggregate);

/// Returns "" when `got` equals `want` as a row multiset, else a short
/// description of the first difference.
std::string DiffAnswers(const Answer& want, const Answer& got);

/// Feeds the checker perturbed copies of `answer` (one aggregate cell
/// changed, one group dropped) and the answer itself. Returns "" when both
/// perturbations are rejected, by DiffAnswers and by their digests, and the
/// copy is accepted. `answer` must have at least two rows.
std::string CheckerSelfTest(const Answer& answer);

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const rqp::Catalog* catalog)
      : catalog_(catalog) {}

  /// The answer `spec` has on the catalog's current contents, canonical.
  rqp::StatusOr<Answer> Evaluate(const rqp::QuerySpec& spec) const;

 private:
  const rqp::Catalog* catalog_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_REFERENCE_H_
