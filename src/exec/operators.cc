#include "exec/operators.h"

#include "common/bytes.h"
#include "exec/expression.h"
#include "format/stats.h"

namespace pixels {

namespace {

/// Appends one length-prefixed serialized component. SerializeValue is
/// already prefix-free per component (kind tag + varint-framed payload),
/// but the explicit length makes the concatenation self-delimiting by
/// construction — no split of the key bytes other than the original one
/// can parse, independent of the payload encoding's details.
void AppendKeyComponent(const Value& v, ByteWriter* w) {
  ByteWriter component;
  stats_internal::SerializeValue(v, &component);
  w->PutVarint(component.size());
  w->PutBytes(component.data().data(), component.size());
}

}  // namespace

std::string RowKey(const RowBatch& batch, size_t row,
                   const std::vector<int>& columns) {
  ByteWriter w;
  for (int c : columns) {
    AppendKeyComponent(batch.column(static_cast<size_t>(c))->GetValue(row),
                       &w);
  }
  const auto& bytes = w.data();
  return std::string(bytes.begin(), bytes.end());
}

std::string ValuesKey(const std::vector<Value>& values) {
  ByteWriter w;
  for (const auto& v : values) AppendKeyComponent(v, &w);
  const auto& bytes = w.data();
  return std::string(bytes.begin(), bytes.end());
}

Status ScanOperator::Open() {
  PIXELS_ASSIGN_OR_RETURN(const TableSchema* schema,
                          ctx_->catalog->GetTable(plan_.db, plan_.table));
  const std::vector<std::string>& files =
      plan_.file_subset.empty() ? schema->files : plan_.file_subset;
  columns_ = plan_.columns;
  qualifier_ = plan_.table_alias.empty() ? plan_.table : plan_.table_alias;
  // Metadata only: open footers and prune row groups; no chunk is fetched
  // or decoded until Next() demands its morsel.
  for (const auto& path : files) {
    PIXELS_ASSIGN_OR_RETURN(
        auto reader,
        PixelsReader::Open(ctx_->catalog->storage(), path, ctx_->io));
    for (size_t g : reader->PruneRowGroups(plan_.pushed)) {
      morsels_.push_back(Morsel{readers_.size(), g});
    }
    readers_.push_back(std::move(reader));
  }
  return Status::OK();
}

Result<RowBatchPtr> ScanOperator::DecodeMorsel(const Morsel& morsel,
                                               ScanStats* stats) const {
  const PixelsReader& reader = *readers_[morsel.reader_index];
  RowBatchPtr batch;
  if (ctx_->fused_decode && !plan_.pushed.empty()) {
    // Fused decode+filter: pushed predicates are evaluated on the encoded
    // chunks and only surviving rows materialize. Billing and
    // rows_scanned stay identical to the unfused path (all projected
    // chunk bytes are charged, all row-group rows counted).
    PIXELS_ASSIGN_OR_RETURN(
        batch, reader.ReadRowGroupFiltered(morsel.row_group, columns_,
                                           plan_.pushed, stats));
    stats->rows_read += reader.RowGroupRows(morsel.row_group);
  } else {
    PIXELS_ASSIGN_OR_RETURN(
        batch, reader.ReadRowGroup(morsel.row_group, columns_, stats));
    stats->rows_read += batch->num_rows();
  }
  // Qualify column names with the scan alias.
  auto qualified = std::make_shared<RowBatch>();
  for (size_t c = 0; c < batch->num_columns(); ++c) {
    qualified->AddColumn(qualifier_ + "." + batch->name(c), batch->column(c));
  }
  // Row-level runtime-filter probe: keep only rows whose join key may be
  // in a published build side. Superset-safe (bloom has no false
  // negatives; nulls never inner-join), so the join output is unchanged.
  for (const auto& rf : resolved_rfs_) {
    if (qualified->num_rows() == 0) break;
    const int idx = qualified->FindColumn(rf.qualified_column);
    if (idx < 0) continue;
    const size_t before = qualified->num_rows();
    std::vector<uint32_t> sel = BloomFilterSelect(
        *qualified->column(static_cast<size_t>(idx)), rf.filter->bloom,
        nullptr);
    ctx_->rf_probe_rows.fetch_add(before, std::memory_order_relaxed);
    ctx_->rf_pruned_rows.fetch_add(before - sel.size(),
                                   std::memory_order_relaxed);
    if (sel.size() == before) continue;
    qualified = qualified->Gather(sel);
  }
  return qualified;
}

void ScanOperator::ResolveRuntimeFilters() {
  rf_resolved_ = true;
  if (!ctx_->runtime_filters) return;
  for (const auto& rf : plan_.runtime_filters) {
    RuntimeFilterPtr f = ctx_->rf_hub.Get(rf.id);
    if (f == nullptr) continue;  // not published (yet): read everything
    resolved_rfs_.push_back(
        ResolvedFilter{std::move(f), rf.column, qualifier_ + "." + rf.column});
  }
  if (resolved_rfs_.empty()) return;
  // Morsel pruning: a row group whose zone map cannot intersect the
  // build keys' [min, max] — or any row group when the build side is
  // empty — is dropped before its chunks are ever fetched, so its billed
  // bytes are genuinely avoided (credited to rf_skipped_bytes).
  std::vector<Morsel> kept;
  kept.reserve(morsels_.size());
  for (const auto& m : morsels_) {
    bool keep = true;
    for (const auto& rf : resolved_rfs_) {
      if (rf.filter->key_count == 0) {
        keep = false;  // inner join with empty build: nothing can match
        break;
      }
      if (!rf.filter->has_range) continue;
      const std::vector<ScanPredicate> range = {
          ScanPredicate{rf.column, ">=", rf.filter->min_key},
          ScanPredicate{rf.column, "<=", rf.filter->max_key},
      };
      if (!readers_[m.reader_index]->RowGroupMayMatch(m.row_group, range)) {
        keep = false;
        break;
      }
    }
    if (keep) {
      kept.push_back(m);
      continue;
    }
    ctx_->rf_pruned_row_groups.fetch_add(1, std::memory_order_relaxed);
    auto bytes =
        readers_[m.reader_index]->RowGroupProjectedBytes(m.row_group, columns_);
    if (bytes.ok()) {
      ctx_->rf_skipped_bytes.fetch_add(*bytes, std::memory_order_relaxed);
    }
  }
  morsels_ = std::move(kept);
}

Status ScanOperator::RefillWindow() {
  window_.clear();
  window_pos_ = 0;
  // Resolve hub filters once, before the first morsel decodes; frozen
  // thereafter so serial and parallel runs prune identically.
  if (!rf_resolved_) ResolveRuntimeFilters();
  if (next_morsel_ >= morsels_.size()) return Status::OK();
  const int par = ctx_->EffectiveParallelism();
  const size_t remaining = morsels_.size() - next_morsel_;
  if (par <= 1) {
    // Serial: stream exactly one morsel — constant memory regardless of
    // table size, and early-terminating consumers (LIMIT) bill only what
    // they actually decoded.
    ScanStats stats;
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch,
                            DecodeMorsel(morsels_[next_morsel_], &stats));
    ++next_morsel_;
    ctx_->bytes_scanned += stats.bytes_scanned;
    ctx_->rows_scanned += stats.rows_read;
    ctx_->cache_hits += stats.cache_hits;
    ctx_->cache_misses += stats.cache_misses;
    window_.push_back(std::move(batch));
    return Status::OK();
  }
  // Parallel: decode a window of morsels concurrently. Slot-indexed
  // outputs keep batch order identical to the serial scan; per-morsel
  // stats merged in order keep billing exact and deterministic.
  const size_t window = std::min(remaining, static_cast<size_t>(par) * 2);
  const size_t base = next_morsel_;
  // Warm the cache for the window after this one while this one decodes.
  LaunchPrefetch(base + window,
                 std::min(morsels_.size() - (base + window),
                          window * static_cast<size_t>(
                                       std::max(ctx_->io.prefetch_windows, 0))));
  window_.resize(window);
  std::vector<ScanStats> stats(window);
  PIXELS_RETURN_NOT_OK(ctx_->EffectivePool()->ParallelFor(
      0, window, /*grain=*/1,
      [&](size_t i) -> Status {
        PIXELS_ASSIGN_OR_RETURN(window_[i],
                                DecodeMorsel(morsels_[base + i], &stats[i]));
        return Status::OK();
      },
      par));
  next_morsel_ += window;
  for (const auto& s : stats) {
    ctx_->bytes_scanned += s.bytes_scanned;
    ctx_->rows_scanned += s.rows_read;
    ctx_->cache_hits += s.cache_hits;
    ctx_->cache_misses += s.cache_misses;
  }
  return Status::OK();
}

void ScanOperator::LaunchPrefetch(size_t begin, size_t count) {
  if (ctx_->io.chunk_cache == nullptr || ctx_->io.prefetch_windows <= 0 ||
      count == 0 || begin >= morsels_.size()) {
    return;
  }
  // One prefetch in flight at a time: wait out the previous window's
  // task before reading next_morsel_-adjacent state again.
  WaitPrefetch();
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    prefetch_inflight_ = true;
  }
  const size_t end = std::min(begin + count, morsels_.size());
  ctx_->EffectivePool()->Submit([this, begin, end] {
    for (size_t m = begin; m < end; ++m) {
      const Morsel& morsel = morsels_[m];
      // Advisory: a failed prefetch just means the decode pays the GET.
      Status ignored = readers_[morsel.reader_index]->PrefetchRowGroup(
          morsel.row_group, columns_);
      (void)ignored;
    }
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    prefetch_inflight_ = false;
    prefetch_cv_.notify_all();
  });
}

void ScanOperator::WaitPrefetch() {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  prefetch_cv_.wait(lock, [this] { return !prefetch_inflight_; });
}

Result<RowBatchPtr> ScanOperator::Next() {
  if (window_pos_ >= window_.size()) {
    PIXELS_RETURN_NOT_OK(RefillWindow());
    if (window_.empty()) return RowBatchPtr(nullptr);
  }
  return window_[window_pos_++];
}

void ScanOperator::Close() {
  WaitPrefetch();  // the task touches readers_/morsels_; don't race teardown
  window_.clear();
  readers_.clear();
  morsels_.clear();
}

Status FilterOperator::Open() {
  // One-time predicate compilation: conjuncts lower into typed kernel
  // steps; whatever cannot lower stays as a scalar residual.
  compiled_ = CompiledPredicate::Compile(predicate_);
  return child_->Open();
}

Result<RowBatchPtr> FilterOperator::Next() {
  PIXELS_ASSIGN_OR_RETURN(SelBatch out, NextSel());
  return out.Materialize();
}

Result<SelBatch> FilterOperator::NextSel() {
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, child_->NextSel());
    if (in.batch == nullptr) return SelBatch{};
    if (in.num_selected() == 0) continue;
    PIXELS_ASSIGN_OR_RETURN(SelectionVector sel,
                            compiled_.Select(*in.batch, in.sel.get()));
    if (sel.empty()) continue;
    return SelBatch{std::move(in.batch),
                    std::make_shared<SelectionVector>(std::move(sel))};
  }
}

Status ProjectOperator::Open() {
  selvec_safe_ = true;
  for (const auto& e : exprs_) {
    selvec_safe_ = selvec_safe_ && ExprSafeToEvalUnselected(*e);
  }
  return child_->Open();
}

Result<RowBatchPtr> ProjectOperator::Next() {
  PIXELS_ASSIGN_OR_RETURN(SelBatch out, NextSel());
  return out.Materialize();
}

Result<SelBatch> ProjectOperator::NextSel() {
  PIXELS_ASSIGN_OR_RETURN(SelBatch in, child_->NextSel());
  if (in.batch == nullptr) return SelBatch{};
  // Project the full batch and forward the selection only when that is
  // semantically safe AND not wasteful: a sparse selection (< 1/4 of the
  // rows) makes evaluating just the selected rows cheaper than
  // evaluating deselected ones.
  const SelectionVector* rows = nullptr;
  if (in.sel != nullptr &&
      (!selvec_safe_ || in.sel->size() * 4 < in.batch->num_rows())) {
    rows = in.sel.get();
  }
  auto out = std::make_shared<RowBatch>();
  for (size_t i = 0; i < exprs_.size(); ++i) {
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                            EvaluateExpr(*exprs_[i], *in.batch, rows));
    out->AddColumn(names_[i], std::move(col));
  }
  return SelBatch{std::move(out), rows != nullptr ? nullptr : in.sel};
}

Result<RowBatchPtr> LimitOperator::Next() {
  if (remaining_ <= 0) return RowBatchPtr(nullptr);
  PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch, child_->Next());
  if (batch == nullptr) return RowBatchPtr(nullptr);
  if (static_cast<int64_t>(batch->num_rows()) <= remaining_) {
    remaining_ -= static_cast<int64_t>(batch->num_rows());
    return batch;
  }
  std::vector<uint32_t> sel;
  for (int64_t i = 0; i < remaining_; ++i) {
    sel.push_back(static_cast<uint32_t>(i));
  }
  remaining_ = 0;
  return batch->Gather(sel);
}

Result<RowBatchPtr> DistinctOperator::Next() {
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch, child_->Next());
    if (batch == nullptr) return RowBatchPtr(nullptr);
    std::vector<int> all_cols;
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      all_cols.push_back(static_cast<int>(c));
    }
    std::vector<uint32_t> sel;
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      if (seen_.insert(RowKey(*batch, r, all_cols)).second) {
        sel.push_back(static_cast<uint32_t>(r));
      }
    }
    if (sel.empty()) continue;
    if (sel.size() == batch->num_rows()) return batch;
    return batch->Gather(sel);
  }
}

Status ViewOperator::Open() {
  if (plan_.view == nullptr) {
    return Status::FailedPrecondition(
        "materialized view placeholder not injected");
  }
  return Status::OK();
}

Result<RowBatchPtr> ViewOperator::Next() {
  const auto& batches = plan_.view->batches();
  if (next_ >= batches.size()) return RowBatchPtr(nullptr);
  return batches[next_++];
}

}  // namespace pixels
