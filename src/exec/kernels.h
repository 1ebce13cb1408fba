// Vectorized kernels: flat, auto-vectorizable loops over the typed
// payload arrays of ColumnVector, producing reusable selection vectors —
// no per-row Value boxing on the hot path. A predicate is "compiled" once
// per operator (CompiledPredicate) by lowering its conjunct AST into a
// kernel program; conjuncts outside the kernel shapes combine into a
// residual predicate that EvaluatePredicate runs on the survivors only.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/bloom_filter.h"
#include "format/batch.h"
#include "format/compare.h"
#include "sql/ast.h"

namespace pixels {

/// A filter predicate lowered into typed kernel steps. Kernel-shaped
/// conjuncts (col op literal, BETWEEN, IN literal-list, IS [NOT] NULL,
/// bare/NOT boolean column) evaluate as flat selection-refining loops;
/// the rest combine into one residual predicate evaluated over the
/// surviving rows. Selection semantics match FilterOperator's scalar path exactly:
/// a row passes when every conjunct is true (null is not true).
class CompiledPredicate {
 public:
  /// Lowers `predicate`'s conjuncts. The expression must outlive the
  /// compiled program (steps keep literal copies but the residual holds
  /// clones, so the program is self-contained).
  static CompiledPredicate Compile(const Expr& predicate);

  /// Number of conjuncts lowered to kernel steps (observability/tests).
  size_t num_kernel_steps() const { return steps_.size(); }
  bool has_residual() const { return residual_ != nullptr; }

  /// Selects the rows of `batch` that satisfy the predicate. When `in`
  /// is non-null only those rows are considered (selection refinement —
  /// lets a Filter stack on an upstream selection without a gather).
  Result<SelectionVector> Select(const RowBatch& batch,
                                 const SelectionVector* in) const;
  Result<SelectionVector> Select(const RowBatch& batch) const {
    return Select(batch, nullptr);
  }

 private:
  struct Step {
    enum class Kind : uint8_t { kCompare, kBetween, kInList, kIsNull, kTruthy };
    Kind kind;
    std::string column;  // qualified name, resolved per batch
    CmpOp op = CmpOp::kEq;        // kCompare
    Value lit;                    // kCompare
    Value lo, hi;                 // kBetween
    std::vector<Value> in_list;   // kInList (non-null items)
    bool negated = false;         // kBetween / kInList / kIsNull / kTruthy
  };

  Status EvalStep(const Step& step, const RowBatch& batch,
                  const SelectionVector* in, SelectionVector* out) const;

  std::vector<Step> steps_;
  /// A conjunct that is constant-false (e.g. BETWEEN with a null bound):
  /// nothing can pass.
  bool never_matches_ = false;
  ExprPtr residual_;  // null when fully compiled
};

/// Hashes every non-null row of a key column with the kind-tagged
/// runtime-filter hash (flat per-type loops). Null rows get hash 0 and
/// must be masked by the caller via the validity mask.
std::vector<uint64_t> RfHashColumn(const ColumnVector& col);

/// Batch hash kernel for join/agg keys: hashes row `i` of all `cols`
/// into one 64-bit hash (kind-tagged per-column hashes from
/// bloom_filter.h, order-sensitive multi-key combine), so equal keys in
/// ValuesKey semantics always hash equal. Null components hash to a
/// fixed tag (nulls form aggregation groups); when `any_null` is
/// non-null it is set to 1 for rows with any null component so join
/// builds/probes can skip them (nulls never join). `num_rows` covers the
/// zero-key case (global aggregation): every row hashes identically.
std::vector<uint64_t> HashKeyColumns(const std::vector<ColumnVectorPtr>& cols,
                                     size_t num_rows,
                                     std::vector<uint8_t>* any_null);

/// True when evaluating `expr` cannot fail on any row of a batch whose
/// column refs resolve: literals, column refs, NOT/negate, and the
/// known binary operators are total (division by zero yields NULL);
/// functions and LIKE type-check per row and may error. Selection-aware
/// operators evaluate such expressions over a batch's deselected rows
/// without changing error behavior; anything else is evaluated on the
/// selected rows only.
bool ExprSafeToEvalUnselected(const Expr& expr);

/// Keeps the rows of `sel` (or all rows when `sel` is null) whose key is
/// non-null and may be in the bloom filter. Nulls never pass: runtime
/// filters apply only to inner-join probe sides, where null keys cannot
/// join.
SelectionVector BloomFilterSelect(const ColumnVector& col,
                                  const BloomFilter& bloom,
                                  const SelectionVector* sel);

}  // namespace pixels
