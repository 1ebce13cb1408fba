// Basic physical operators: scan, filter, project, limit, distinct, and
// materialized-view iteration. Join / aggregate / sort live in their own
// translation units.
#pragma once

#include <condition_variable>
#include <mutex>
#include <set>

#include "exec/kernels.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace pixels {

/// Scans a base table through the Pixels readers: projection + zone-map
/// pruning, output columns qualified with the scan alias.
///
/// Morsel-driven: Open() only opens file footers and prunes row groups;
/// each surviving row group is one morsel, decoded on demand from Next().
/// At parallelism 1 exactly one morsel is resident at a time (no O(table)
/// buffering); at parallelism N a sliding window of morsels is decoded
/// concurrently on the pool, preserving serial batch order and billing.
class ScanOperator : public Operator {
 public:
  ScanOperator(const LogicalPlan& scan, ExecContext* ctx)
      : plan_(scan), ctx_(ctx) {}

  Status Open() override;
  Result<RowBatchPtr> Next() override;
  void Close() override;

 private:
  /// One unit of scan work: a surviving row group of one file.
  struct Morsel {
    size_t reader_index;
    size_t row_group;
  };

  /// A runtime filter the hub had published when this scan started
  /// decoding; resolved once at the first RefillWindow and frozen so
  /// serial and parallel runs see the same filters.
  struct ResolvedFilter {
    RuntimeFilterPtr filter;
    std::string column;            // bare column name (zone maps)
    std::string qualified_column;  // name in decoded batches
  };

  Result<RowBatchPtr> DecodeMorsel(const Morsel& morsel, ScanStats* stats) const;
  Status RefillWindow();
  /// Polls the hub for published runtime filters and prunes pending
  /// morsels via zone maps on the filters' key ranges, crediting
  /// rf_pruned_row_groups / rf_skipped_bytes for work avoided.
  void ResolveRuntimeFilters();
  /// Warms the chunk cache for morsels [begin, begin + count) on the pool
  /// while the current window decodes. At most one prefetch in flight;
  /// advisory only (errors surface when the morsel is actually decoded).
  void LaunchPrefetch(size_t begin, size_t count);
  void WaitPrefetch();

  const LogicalPlan& plan_;
  ExecContext* ctx_;
  std::string qualifier_;
  std::vector<std::string> columns_;
  std::vector<std::unique_ptr<PixelsReader>> readers_;
  std::vector<Morsel> morsels_;
  size_t next_morsel_ = 0;
  bool rf_resolved_ = false;
  std::vector<ResolvedFilter> resolved_rfs_;
  std::vector<RowBatchPtr> window_;  // decoded, not yet emitted
  size_t window_pos_ = 0;
  std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;
  bool prefetch_inflight_ = false;
};

/// Emits only rows whose predicate evaluates to true (SQL semantics:
/// null is not true). The predicate is compiled once at Open into a
/// kernel program (typed flat loops over payload arrays); conjuncts the
/// compiler cannot lower fall back to the scalar evaluator per row.
class FilterOperator : public Operator {
 public:
  FilterOperator(OperatorPtr child, const Expr& predicate)
      : child_(std::move(child)), predicate_(predicate) {}

  Status Open() override;
  Result<RowBatchPtr> Next() override;
  /// Selection-aware path: hands the child's batch through untouched
  /// with a refined selection vector, so downstream selection-aware
  /// consumers never pay the gather.
  Result<SelBatch> NextSel() override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  const Expr& predicate_;
  CompiledPredicate compiled_;
};

/// Computes one output column per expression.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(OperatorPtr child, const std::vector<ExprPtr>& exprs,
                  const std::vector<std::string>& names)
      : child_(std::move(child)), exprs_(exprs), names_(names) {}

  Status Open() override;
  Result<RowBatchPtr> Next() override;
  /// Selection-aware path: when every expression is total (cannot error
  /// on a deselected row) and the selection is not too sparse, projects
  /// the full batch and forwards the selection; otherwise evaluates only
  /// the selected rows.
  Result<SelBatch> NextSel() override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  const std::vector<ExprPtr>& exprs_;
  const std::vector<std::string>& names_;
  bool selvec_safe_ = false;
};

/// Truncates the stream after n rows.
class LimitOperator : public Operator {
 public:
  LimitOperator(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), remaining_(limit) {}

  Status Open() override { return child_->Open(); }
  Result<RowBatchPtr> Next() override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

/// Streaming duplicate elimination over all columns.
class DistinctOperator : public Operator {
 public:
  explicit DistinctOperator(OperatorPtr child) : child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }
  Result<RowBatchPtr> Next() override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  std::set<std::string> seen_;
};

/// Iterates a materialized table (CF sub-plan result or inline view).
class ViewOperator : public Operator {
 public:
  explicit ViewOperator(const LogicalPlan& view) : plan_(view) {}

  Status Open() override;
  Result<RowBatchPtr> Next() override;

 private:
  const LogicalPlan& plan_;
  size_t next_ = 0;
};

/// Serializes row `row` of `batch` into a collision-free key (used by
/// distinct, COUNT(DISTINCT) state, and the scalar join/agg paths).
/// Each component is length-prefixed so no concatenation of components
/// can collide with a different split of the same bytes.
std::string RowKey(const RowBatch& batch, size_t row,
                   const std::vector<int>& columns);

/// Serializes a list of Values into a collision-free key (same
/// per-component length-prefixed framing as RowKey).
std::string ValuesKey(const std::vector<Value>& values);

}  // namespace pixels
