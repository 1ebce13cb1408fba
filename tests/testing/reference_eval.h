// Row-at-a-time reference evaluator: evaluates an expression one row at
// a time with EvaluateExprRow and builds the result vector with
// BuildVectorFromValues. The columnar EvaluateExpr must match it in
// values, nulls, errors and vector type; tests and the kernel benchmark
// use it as their oracle.
#pragma once

#include <vector>

#include "exec/expression.h"

namespace pixels {
namespace testing {

inline Result<ColumnVectorPtr> ReferenceEvaluateExpr(const Expr& expr,
                                                     const RowBatch& batch) {
  // A bare column reference is the column itself.
  if (expr.kind == Expr::Kind::kColumnRef) {
    int idx = batch.FindColumn(expr.QualifiedName());
    if (idx < 0) {
      return Status::InvalidArgument("column not found at execution: " +
                                     expr.QualifiedName());
    }
    return batch.column(static_cast<size_t>(idx));
  }
  std::vector<Value> values;
  values.reserve(batch.num_rows());
  for (size_t row = 0; row < batch.num_rows(); ++row) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(expr, batch, row));
    values.push_back(std::move(v));
  }
  return BuildVectorFromValues(values);
}

}  // namespace testing
}  // namespace pixels
