#include "turbo/cf_worker.h"

#include <chrono>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "format/footer_cache.h"
#include "format/writer.h"
#include "plan/fingerprint.h"
#include "storage/retrying_storage.h"
#include "turbo/shuffle/exchange.h"
#include "turbo/shuffle/stage_graph.h"

namespace pixels {

Result<TablePtr> RoundTripView(const Table& view, Storage* storage,
                               const std::string& path) {
  // Derive the file schema from the view's first batch.
  if (view.batches().empty()) {
    // Nothing to persist; an empty table round-trips to itself.
    return std::make_shared<Table>();
  }
  const RowBatch& first = *view.batches()[0];
  FileSchema schema;
  for (size_t c = 0; c < first.num_columns(); ++c) {
    schema.push_back(ColumnDef{first.name(c), first.column(c)->type()});
  }
  PixelsWriter writer(schema);
  for (const auto& batch : view.batches()) {
    PIXELS_RETURN_NOT_OK(writer.Append(*batch));
  }
  PIXELS_RETURN_NOT_OK(writer.Finish(storage, path));

  PIXELS_ASSIGN_OR_RETURN(auto reader, PixelsReader::Open(storage, path));
  auto out = std::make_shared<Table>();
  for (size_t g = 0; g < reader->NumRowGroups(); ++g) {
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch, reader->ReadRowGroup(g, {}));
    out->AddBatch(std::move(batch));
  }
  return out;
}

namespace {

/// Fingerprint + version pins snapshotted BEFORE a plan executes (or is
/// partitioned — partitioning bakes the catalog's file list into the
/// worker plans). Scans resolve their file lists at execution time, so a
/// catalog mutation racing the query bumps a version past this snapshot
/// and the inserted entry conservatively fails its next validation.
/// Snapshotting after execution instead would stamp a stale result with
/// the new epoch and silently poison the store.
struct MvInsertSnapshot {
  bool valid = false;
  PlanFingerprint fp;
  std::vector<TableVersionPin> pins;
};

MvInsertSnapshot SnapshotMvInsert(const MvStore* store,
                                  const LogicalPlan& plan,
                                  const Catalog& catalog) {
  MvInsertSnapshot snap;
  if (store == nullptr) return snap;
  auto fp = FingerprintPlan(plan);
  if (!fp.ok()) return snap;
  auto pins = CollectTableVersionPins(plan, catalog);
  if (!pins.ok()) return snap;
  snap.valid = true;
  snap.fp = *fp;
  snap.pins = std::move(*pins);
  return snap;
}

/// Best-effort insert of an executed plan's result under its snapshot.
void CommitMvInsert(MvStore* store, MvInsertSnapshot snap,
                    const TablePtr& result, uint64_t rebuild_scan_bytes) {
  if (store == nullptr || !snap.valid || result == nullptr) return;
  store->Insert(snap.fp, result, rebuild_scan_bytes, std::move(snap.pins));
}

/// The options' tracer when tracing is actually on, else null.
Tracer* LiveTracer(const CfWorkerOptions& options) {
  return options.tracer != nullptr && options.tracer->enabled()
             ? options.tracer
             : nullptr;
}

/// Emits an mv-lookup span around one store probe.
void TraceMvLookup(Tracer* tracer, uint64_t parent, const char* granularity,
                   bool hit, uint64_t saved_bytes) {
  if (tracer == nullptr) return;
  const uint64_t span = tracer->StartSpan("mv-lookup", parent);
  tracer->Annotate(span, "granularity", granularity);
  tracer->Annotate(span, "hit", hit ? "true" : "false");
  if (hit) tracer->Annotate(span, "saved_bytes", saved_bytes);
  tracer->EndSpan(span);
}

/// Applies the vectorized-execution knobs to a fresh context.
void ApplyExecKnobs(ExecContext* ctx, const CfWorkerOptions& options) {
  ctx->runtime_filters = options.runtime_filters;
  ctx->fused_decode = options.fused_decode;
  ctx->rf_bloom_bits_per_key = options.rf_bloom_bits_per_key;
  ctx->vectorized_hash = options.vectorized_hash;
  ctx->hash_table_load_factor = options.hash_table_load_factor;
}

/// Snapshot of one context's runtime-filter counters.
struct RfCounters {
  uint64_t probe_rows = 0;
  uint64_t pruned_rows = 0;
  uint64_t pruned_row_groups = 0;
  uint64_t skipped_bytes = 0;

  static RfCounters From(const ExecContext& ctx) {
    RfCounters c;
    c.probe_rows = ctx.rf_probe_rows.load();
    c.pruned_rows = ctx.rf_pruned_rows.load();
    c.pruned_row_groups = ctx.rf_pruned_row_groups.load();
    c.skipped_bytes = ctx.rf_skipped_bytes.load();
    return c;
  }
};

void MergeRf(CfExecution* out, const RfCounters& c) {
  out->rf_probe_rows += c.probe_rows;
  out->rf_pruned_rows += c.pruned_rows;
  out->rf_pruned_row_groups += c.pruned_row_groups;
  out->rf_skipped_bytes += c.skipped_bytes;
}

void SetProfileRf(OperatorProfile* node, const RfCounters& c) {
  node->rf_probe_rows = c.probe_rows;
  node->rf_pruned_rows = c.pruned_rows;
  node->rf_pruned_row_groups = c.pruned_row_groups;
  node->rf_skipped_bytes = c.skipped_bytes;
}

}  // namespace

Result<CfExecution> ExecuteWithCfPushdown(const PlanPtr& plan,
                                          Catalog* catalog,
                                          const CfWorkerOptions& options) {
  CfExecution out;
  Tracer* tracer = LiveTracer(options);

  // Full-query MV reuse first: a hit answers the query without splitting,
  // scanning, or invoking a single CF worker.
  if (options.mv_store != nullptr) {
    auto fp = FingerprintPlan(*plan);
    if (fp.ok()) {
      auto hit = options.mv_store->Lookup(*fp, *catalog);
      TraceMvLookup(tracer, options.trace_parent, "full-query",
                    hit.has_value(), hit ? hit->saved_scan_bytes : 0);
      if (hit) {
        out.result = hit->table;
        out.mv_full_hit = true;
        out.mv_saved_bytes = hit->saved_scan_bytes;
        return out;
      }
    }
  }

  PIXELS_ASSIGN_OR_RETURN(SubPlanSplit split, SplitForCf(plan));

  ExecContext top_ctx;
  top_ctx.catalog = catalog;
  top_ctx.io = options.io;
  top_ctx.tracer = options.tracer;
  top_ctx.trace_parent = options.trace_parent;
  top_ctx.profile = options.profile;
  ApplyExecKnobs(&top_ctx, options);

  if (split.subplan == nullptr) {
    // Nothing heavy to push: run the plan as-is.
    MvInsertSnapshot snap = SnapshotMvInsert(options.mv_store, *plan, *catalog);
    PIXELS_ASSIGN_OR_RETURN(out.result, ExecutePlan(plan, &top_ctx));
    out.bytes_scanned = top_ctx.bytes_scanned;
    out.work_vcpu_seconds = static_cast<double>(out.bytes_scanned) /
                            options.bytes_per_vcpu_second;
    MergeRf(&out, RfCounters::From(top_ctx));
    CommitMvInsert(options.mv_store, std::move(snap), out.result,
                   out.bytes_scanned);
    return out;
  }

  // Sub-plan MV reuse: the paper's materialized-view seam is exactly the
  // store's unit of sharing, so a repeat of the heavy sub-plan (even
  // under a different top-level shape) skips the whole worker fleet.
  if (options.mv_store != nullptr) {
    auto sub_fp = FingerprintPlan(*split.subplan);
    if (sub_fp.ok()) {
      auto hit = options.mv_store->Lookup(*sub_fp, *catalog);
      TraceMvLookup(tracer, options.trace_parent, "subplan",
                    hit.has_value(), hit ? hit->saved_scan_bytes : 0);
      if (hit) {
        out.pushdown_used = true;
        out.mv_subplan_hit = true;
        out.mv_saved_bytes = hit->saved_scan_bytes;
        out.view = hit->table;
        PIXELS_RETURN_NOT_OK(InjectView(split.final_plan, out.view));
        ExecContext final_ctx;
        final_ctx.catalog = catalog;
        final_ctx.io = options.io;
        final_ctx.tracer = options.tracer;
        final_ctx.trace_parent = options.trace_parent;
        final_ctx.profile = options.profile;
        ApplyExecKnobs(&final_ctx, options);
        PIXELS_ASSIGN_OR_RETURN(out.result,
                                ExecutePlan(split.final_plan, &final_ctx));
        out.bytes_scanned = final_ctx.bytes_scanned;
        out.work_vcpu_seconds = static_cast<double>(out.bytes_scanned) /
                                options.bytes_per_vcpu_second;
        MergeRf(&out, RfCounters::From(final_ctx));
        return out;
      }
    }
  }

  // Snapshot both insert targets now, before partitioning reads the
  // catalog's file lists and before any worker scans.
  MvInsertSnapshot sub_snap =
      SnapshotMvInsert(options.mv_store, *split.subplan, *catalog);
  MvInsertSnapshot full_snap =
      SnapshotMvInsert(options.mv_store, *plan, *catalog);
  const uint64_t prior_parent =
      tracer != nullptr ? tracer->ActiveParent() : 0;

  // Common tail shared by the single-stage fleet and the shuffle DAG:
  // cache the view at the sub-plan seam, inject it, run the top-level
  // plan, cache the full result. `out.bytes_scanned` must already hold
  // the sub-plan total when this runs.
  auto finish = [&](TablePtr view) -> Result<CfExecution> {
    out.view = view;
    out.work_vcpu_seconds = static_cast<double>(out.bytes_scanned) /
                            options.bytes_per_vcpu_second;

    // The worker-produced view is the shareable artifact: cache it keyed
    // by the unpartitioned sub-plan so future queries skip the fleet.
    CommitMvInsert(options.mv_store, std::move(sub_snap), view,
                   out.bytes_scanned);

    // Inject the materialized view and run the top-level plan.
    PIXELS_RETURN_NOT_OK(InjectView(split.final_plan, view));
    ExecContext final_ctx;
    final_ctx.catalog = catalog;
    final_ctx.io = options.io;
    final_ctx.tracer = options.tracer;
    final_ctx.trace_parent = options.trace_parent;
    final_ctx.profile = options.profile;
    ApplyExecKnobs(&final_ctx, options);
    uint64_t final_span = 0;
    if (tracer != nullptr) {
      final_span = tracer->StartSpan("cf-final", options.trace_parent);
      tracer->SetActiveParent(final_span);
      final_ctx.trace_parent = final_span;
    }
    auto final_result = ExecutePlan(split.final_plan, &final_ctx);
    if (tracer != nullptr) {
      if (!final_result.ok()) {
        tracer->Annotate(final_span, "error",
                         final_result.status().ToString());
      }
      tracer->Annotate(final_span, "bytes", final_ctx.bytes_scanned.load());
      tracer->EndSpan(final_span);
      tracer->SetActiveParent(prior_parent);
    }
    PIXELS_ASSIGN_OR_RETURN(out.result, std::move(final_result));
    out.bytes_scanned += final_ctx.bytes_scanned;
    MergeRf(&out, RfCounters::From(final_ctx));

    // Also cache the full-query result (keyed by the original plan, which
    // still has no inlined view) so an identical repeat skips even the
    // top-level merge.
    CommitMvInsert(options.mv_store, std::move(full_snap), out.result,
                   out.bytes_scanned);
    return out;
  };

  // Multi-stage shuffle path (cf_shuffle): an eligible sub-plan runs as a
  // scan→shuffle→join DAG of CF stages exchanging hash-partitioned data
  // through the object store, with hedged duplicates against stragglers.
  // Ineligible shapes (no join, non-equi, nested joins) silently keep the
  // single-stage fleet below.
  if (options.shuffle.enabled) {
    StageGraph graph = BuildStageGraph(split.subplan);
    if (!graph.viable && tracer != nullptr) {
      const uint64_t skip =
          tracer->StartSpan("cf-shuffle-skip", options.trace_parent);
      tracer->Annotate(skip, "reason", graph.reason);
      tracer->EndSpan(skip);
    }
    if (graph.viable) {
      ShuffleRunParams rp;
      rp.catalog = catalog;
      rp.store = options.intermediate_store != nullptr
                     ? options.intermediate_store
                     : catalog->storage();
      rp.shuffle = options.shuffle;
      if (rp.shuffle.object_prefix.empty()) {
        rp.shuffle.object_prefix = options.view_prefix + ".shuffle";
      }
      rp.io = options.io;
      rp.num_workers = options.num_workers;
      rp.bytes_per_vcpu_second = options.bytes_per_vcpu_second;
      rp.fleet_parallelism = options.fleet_parallelism;
      rp.worker_parallelism = options.worker_parallelism;
      rp.max_task_attempts = options.max_worker_attempts;
      rp.retry_backoff_ms = options.worker_retry_backoff_ms;
      rp.vm_fallback = options.vm_fallback;
      rp.runtime_filters = options.runtime_filters;
      rp.fused_decode = options.fused_decode;
      rp.rf_bloom_bits_per_key = options.rf_bloom_bits_per_key;
      rp.vectorized_hash = options.vectorized_hash;
      rp.hash_table_load_factor = options.hash_table_load_factor;
      rp.tracer = options.tracer;
      rp.trace_parent = options.trace_parent;
      rp.profile = options.profile;
      rp.event_log = options.event_log;
      Result<ShuffleExecution> shux = ExecuteShuffleDag(graph, rp);
      if (!shux.ok()) {
        // GC the exchange prefix on the failure path too — a failed or
        // cancelled query must not leak intermediate objects.
        SweepExchangePrefix(rp.store, rp.shuffle.object_prefix);
        return shux.status();
      }
      out.pushdown_used = true;
      out.shuffle_used = true;
      out.shuffle_stages = shux->stages;
      out.workers_used = shux->tasks;
      out.worker_retries = shux->task_retries;
      out.workers_recovered = shux->tasks_recovered;
      out.workers_fallback = shux->tasks_fallback;
      out.fallback_bytes_scanned = shux->fallback_bytes_scanned;
      out.retry_backoff_simulated_ms = shux->retry_backoff_simulated_ms;
      out.hedges_fired = shux->hedges_fired;
      out.hedges_won = shux->hedges_won;
      out.shuffle_bytes_written = shux->exchange_bytes_written;
      out.shuffle_bytes_read = shux->exchange_bytes_read;
      out.shuffle_stage_wall_ms = shux->stage_wall_ms;
      out.shuffle_critical_path_ms = shux->critical_path_ms;
      out.shuffle_objects_swept = shux->objects_swept;
      out.bytes_scanned = shux->bytes_scanned;
      out.rf_probe_rows += shux->rf_probe_rows;
      out.rf_pruned_rows += shux->rf_pruned_rows;
      out.rf_pruned_row_groups += shux->rf_pruned_row_groups;
      out.rf_skipped_bytes += shux->rf_skipped_bytes;
      return finish(std::move(shux->view));
    }
  }

  // Partition the sub-plan across the worker fleet.
  PIXELS_ASSIGN_OR_RETURN(
      std::vector<PlanPtr> worker_plans,
      PartitionSubplan(split.subplan, std::max(options.num_workers, 1),
                       *catalog));
  out.pushdown_used = true;

  // Each worker executes its partition concurrently on the shared pool;
  // results land in index-addressed slots, so the view concatenation and
  // the billing totals are identical to a serial fleet. A worker whose
  // attempt fails with a retryable error is re-invoked (bounded budget,
  // exponential backoff in simulated time); each attempt starts from a
  // fresh ExecContext and only the successful attempt commits its slot,
  // so scanned-byte accounting is identical to a fault-free fleet.
  const auto fleet_start = std::chrono::steady_clock::now();
  const size_t n = worker_plans.size();
  uint64_t fleet_span = 0;
  if (tracer != nullptr) {
    fleet_span = tracer->StartSpan("cf-fleet", options.trace_parent);
    tracer->Annotate(fleet_span, "partitions", static_cast<uint64_t>(n));
  }
  OperatorProfile* fleet_node =
      options.profile != nullptr
          ? options.profile->AddNode("CfFleet", nullptr)
          : nullptr;
  std::vector<TablePtr> parts(n);
  std::vector<uint64_t> worker_bytes(n, 0);
  std::vector<RfCounters> worker_rf(n);
  std::vector<int> retries(n, 0);
  std::vector<char> recovered(n, 0);
  std::vector<char> needs_fallback(n, 0);
  std::vector<double> backoff_ms(n, 0.0);
  out.worker_elapsed_seconds.assign(n, 0.0);
  auto attempt_worker = [&](size_t w, uint64_t attempt_span) -> Status {
    ExecContext worker_ctx;
    worker_ctx.catalog = catalog;
    worker_ctx.parallelism = std::max(options.worker_parallelism, 1);
    worker_ctx.io = options.io;
    worker_ctx.tracer = options.tracer;
    worker_ctx.trace_parent = attempt_span;
    ApplyExecKnobs(&worker_ctx, options);
    PIXELS_ASSIGN_OR_RETURN(TablePtr part,
                            ExecutePlan(worker_plans[w], &worker_ctx));
    if (options.intermediate_store != nullptr) {
      // Worker results land in object storage (paper: S3) and the
      // top-level plan reads them back. Nothing reads the object again,
      // so it goes whether or not the round trip succeeded; deleting is
      // best effort, since a leftover view is garbage, never a wrong
      // result.
      Storage* store = options.intermediate_store;
      const std::string path =
          options.view_prefix + "." + std::to_string(w) + ".pxl";
      Result<TablePtr> restored = RoundTripView(*part, store, path);
      if (store->Exists(path)) (void)store->Delete(path);
      FooterCache::Shared()->Invalidate(store, path);
      PIXELS_ASSIGN_OR_RETURN(part, std::move(restored));
    }
    // Commit the slot only on success: a failed attempt's partial scan
    // never reaches the billing counters. The same rule keeps profiles
    // clean — an aggregate node is created from this context only here.
    worker_bytes[w] = worker_ctx.bytes_scanned;
    worker_rf[w] = RfCounters::From(worker_ctx);
    parts[w] = std::move(part);
    if (options.profile != nullptr) {
      OperatorProfile* node = options.profile->AddNode(
          "CfWorker[" + std::to_string(w) + "]", fleet_node,
          /*measures_io=*/true);
      node->bytes_scanned = worker_ctx.bytes_scanned.load();
      node->cache_hits = worker_ctx.cache_hits.load();
      node->cache_misses = worker_ctx.cache_misses.load();
      node->rows_out = parts[w]->num_rows();
      node->batches_out = parts[w]->batches().size();
      SetProfileRf(node, worker_rf[w]);
    }
    return Status::OK();
  };
  auto run_worker = [&](size_t w) -> Status {
    const auto start = std::chrono::steady_clock::now();
    const int budget = std::max(options.max_worker_attempts, 1);
    uint64_t worker_span = 0;
    if (tracer != nullptr) {
      worker_span = tracer->StartSpan("cf-worker", fleet_span);
      tracer->Annotate(worker_span, "partition", static_cast<uint64_t>(w));
    }
    Status last;
    for (int attempt = 1; attempt <= budget; ++attempt) {
      if (attempt > 1) {
        ++retries[w];
        double delay = options.worker_retry_backoff_ms;
        for (int i = 2; i < attempt; ++i) delay *= 2.0;
        backoff_ms[w] += delay;
      }
      uint64_t attempt_span = 0;
      if (tracer != nullptr) {
        attempt_span = tracer->StartSpan("cf-attempt", worker_span);
        tracer->Annotate(attempt_span, "attempt",
                         static_cast<uint64_t>(attempt));
        // Ambient parent for the storage decorator. Under a parallel
        // fleet concurrent attempts race the slot (tree stays
        // well-formed); a serial fleet nests exactly.
        tracer->SetActiveParent(attempt_span);
      }
      last = attempt_worker(w, attempt_span);
      if (tracer != nullptr) {
        if (!last.ok()) {
          tracer->Annotate(attempt_span, "error", last.ToString());
        }
        tracer->EndSpan(attempt_span);
      }
      if (last.ok()) {
        if (attempt > 1) recovered[w] = 1;
        out.worker_elapsed_seconds[w] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (tracer != nullptr) {
          tracer->Annotate(worker_span, "retries",
                           static_cast<uint64_t>(retries[w]));
          tracer->Annotate(worker_span, "bytes", worker_bytes[w]);
          tracer->EndSpan(worker_span);
        }
        return Status::OK();
      }
      // Permanent errors fail the query outright — re-running or falling
      // back cannot fix a corrupt or missing object.
      if (!RetryPolicy::IsRetryable(last)) {
        if (tracer != nullptr) {
          tracer->Annotate(worker_span, "retries",
                           static_cast<uint64_t>(retries[w]));
          tracer->Annotate(worker_span, "error", last.ToString());
          tracer->EndSpan(worker_span);
        }
        return last;
      }
    }
    if (tracer != nullptr) {
      tracer->Annotate(worker_span, "retries",
                       static_cast<uint64_t>(retries[w]));
    }
    if (options.vm_fallback) {
      // Exhausted the budget: degrade this partition to the VM path
      // after the fleet drains instead of failing the whole query.
      needs_fallback[w] = 1;
      if (tracer != nullptr) {
        tracer->Annotate(worker_span, "fallback", "attempts-exhausted");
        tracer->EndSpan(worker_span);
      }
      return Status::OK();
    }
    if (tracer != nullptr) {
      tracer->Annotate(worker_span, "error", last.ToString());
      tracer->EndSpan(worker_span);
    }
    return last;
  };
  const int fleet_par = options.fleet_parallelism > 0
                            ? options.fleet_parallelism
                            : DefaultParallelism();
  const Status fleet_status = ThreadPool::Shared()->ParallelFor(
      0, n, /*grain=*/1, [&](size_t w) { return run_worker(w); }, fleet_par);
  if (tracer != nullptr) {
    tracer->SetActiveParent(prior_parent);
    if (!fleet_status.ok()) {
      tracer->Annotate(fleet_span, "error", fleet_status.ToString());
      tracer->EndSpan(fleet_span);
    }
  }
  PIXELS_RETURN_NOT_OK(fleet_status);
  out.fleet_elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    fleet_start)
          .count();

  // Graceful degradation: partitions whose workers exhausted their
  // re-invocation budget run on the VM path — executed inline by the
  // coordinator, serially, with no intermediate round trip. The view is
  // byte-identical either way; only `used_cf` and the compute-cost split
  // reflect the degradation.
  for (size_t w = 0; w < n; ++w) {
    if (!needs_fallback[w]) continue;
    ExecContext vm_ctx;
    vm_ctx.catalog = catalog;
    vm_ctx.io = options.io;
    vm_ctx.tracer = options.tracer;
    ApplyExecKnobs(&vm_ctx, options);
    uint64_t fb_span = 0;
    if (tracer != nullptr) {
      fb_span = tracer->StartSpan("cf-fallback", fleet_span);
      tracer->Annotate(fb_span, "partition", static_cast<uint64_t>(w));
      tracer->SetActiveParent(fb_span);
      vm_ctx.trace_parent = fb_span;
    }
    auto fb_result = ExecutePlan(worker_plans[w], &vm_ctx);
    if (tracer != nullptr) {
      if (!fb_result.ok()) {
        tracer->Annotate(fb_span, "error", fb_result.status().ToString());
      }
      tracer->Annotate(fb_span, "bytes",
                       vm_ctx.bytes_scanned.load());
      tracer->EndSpan(fb_span);
      tracer->SetActiveParent(prior_parent);
    }
    PIXELS_ASSIGN_OR_RETURN(parts[w], std::move(fb_result));
    worker_bytes[w] = vm_ctx.bytes_scanned;
    worker_rf[w] = RfCounters::From(vm_ctx);
    out.fallback_bytes_scanned += vm_ctx.bytes_scanned;
    ++out.workers_fallback;
    if (options.profile != nullptr) {
      OperatorProfile* node = options.profile->AddNode(
          "CfFallback[" + std::to_string(w) + "]", fleet_node,
          /*measures_io=*/true);
      node->bytes_scanned = vm_ctx.bytes_scanned.load();
      node->cache_hits = vm_ctx.cache_hits.load();
      node->cache_misses = vm_ctx.cache_misses.load();
      node->rows_out = parts[w]->num_rows();
      node->batches_out = parts[w]->batches().size();
      SetProfileRf(node, worker_rf[w]);
    }
  }
  out.workers_used = static_cast<int>(n) - out.workers_fallback;

  // Merge per-worker counters and views in partition order.
  auto view = std::make_shared<Table>();
  for (size_t w = 0; w < n; ++w) {
    out.bytes_scanned += worker_bytes[w];
    MergeRf(&out, worker_rf[w]);
    out.worker_retries += retries[w];
    if (recovered[w]) ++out.workers_recovered;
    out.retry_backoff_simulated_ms += backoff_ms[w];
    for (const auto& batch : parts[w]->batches()) view->AddBatch(batch);
  }
  if (tracer != nullptr) {
    tracer->Annotate(fleet_span, "retries",
                     static_cast<uint64_t>(out.worker_retries));
    tracer->Annotate(fleet_span, "fallbacks",
                     static_cast<uint64_t>(out.workers_fallback));
    tracer->Annotate(fleet_span, "bytes", out.bytes_scanned);
    tracer->EndSpan(fleet_span);
  }
  return finish(std::move(view));
}

}  // namespace pixels
