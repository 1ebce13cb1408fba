// Expression evaluation over row batches. Supports the full AST: scalar
// arithmetic/comparison/logic, LIKE, BETWEEN, IN, IS NULL, CASE, string
// and date scalar functions, and CAST.
#pragma once

#include "common/result.h"
#include "format/batch.h"
#include "sql/ast.h"

namespace pixels {

/// Evaluates `expr` against every row of `batch` (or, when `sel` is
/// non-null, only the rows it selects, in order), returning one value per
/// row. Column references resolve by qualified name with the batch's
/// relaxed matching rules, once per call. Column refs, literals,
/// arithmetic, comparisons, AND/OR/NOT, IN, BETWEEN, IS [NOT] NULL, CASE
/// and LIKE with a literal pattern run as flat loops over typed payloads;
/// any other subtree sends the whole expression through EvaluateExprRow.
/// Values, nulls, errors and the vector type are those of evaluating each
/// row with EvaluateExprRow and building the vector with
/// BuildVectorFromValues, except that a bare column reference returns the
/// column itself.
Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch,
                                     const SelectionVector* sel = nullptr);

/// Evaluates a filter predicate over the rows of `sel` (every row when
/// null) and returns those, in order, for which it is true: non-null and
/// true under Value::AsBool, exactly as when testing each row's
/// EvaluateExprRow value.
Result<SelectionVector> EvaluatePredicate(const Expr& pred,
                                          const RowBatch& batch,
                                          const SelectionVector* sel);

/// Evaluates `expr` for a single row.
Result<Value> EvaluateExprRow(const Expr& expr, const RowBatch& batch,
                              size_t row);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Builds a typed vector from scalar values: strings force kString, any
/// double forces kDouble, otherwise kInt64 (all-null defaults to kInt64).
Result<ColumnVectorPtr> BuildVectorFromValues(const std::vector<Value>& values);

}  // namespace pixels
