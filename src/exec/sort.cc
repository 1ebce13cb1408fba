#include "exec/sort.h"

#include <algorithm>

#include "exec/expression.h"

namespace pixels {

Status SortOperator::Open() {
  PIXELS_RETURN_NOT_OK(child_->Open());
  // Materialize all input into one combined batch.
  std::vector<RowBatchPtr> batches;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr b, child_->Next());
    if (b == nullptr) break;
    if (b->num_rows() > 0) batches.push_back(std::move(b));
  }
  if (batches.empty()) {
    sorted_ = nullptr;
    return Status::OK();
  }
  RowBatchPtr combined;
  if (batches.size() == 1) {
    combined = batches[0];
  } else {
    combined = std::make_shared<RowBatch>();
    for (size_t c = 0; c < batches[0]->num_columns(); ++c) {
      auto col = MakeVector(batches[0]->column(c)->type());
      for (const auto& b : batches) col->AppendAll(*b->column(c));
      combined->AddColumn(batches[0]->name(c), std::move(col));
    }
  }

  // Evaluate sort keys once per key over the combined batch.
  std::vector<ColumnVectorPtr> keys;
  for (const auto& item : plan_.order_by) {
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                            EvaluateExpr(*item.expr, *combined));
    keys.push_back(std::move(col));
  }

  // Value::Compare on the typed payloads: a key vector holds one payload
  // class, so rows compare as exact ints, doubles (NaN ties with
  // everything) or strings, with nulls first.
  auto compare = [](const ColumnVector& k, uint32_t a, uint32_t b) {
    const uint8_t* ok = k.valid_data();
    if (!ok[a] || !ok[b]) return static_cast<int>(ok[a]) - ok[b];
    if (k.type() == TypeId::kDouble) {
      const double x = k.doubles_data()[a], y = k.doubles_data()[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    if (k.type() == TypeId::kString) {
      const int c = k.strings_data()[a].compare(k.strings_data()[b]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    const int64_t x = k.ints_data()[a], y = k.ints_data()[b];
    return x < y ? -1 : (x > y ? 1 : 0);
  };
  std::vector<uint32_t> order(combined->num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t k = 0; k < keys.size(); ++k) {
                       const int cmp = compare(*keys[k], a, b);
                       if (cmp == 0) continue;
                       return plan_.order_by[k].ascending ? cmp < 0 : cmp > 0;
                     }
                     return false;
                   });
  sorted_ = combined->Gather(order);
  return Status::OK();
}

Result<RowBatchPtr> SortOperator::Next() {
  if (emitted_ || sorted_ == nullptr) return RowBatchPtr(nullptr);
  emitted_ = true;
  return sorted_;
}

}  // namespace pixels
