// E7 — Operator pushdown into CF sub-plans (paper §3.1).
//
// Runs TPC-H aggregations and joins directly in one process vs through
// the CF pushdown path (sub-plan partitioned over a worker fleet, partial
// results written to object storage as materialized views, merged by the
// top-level plan). Reports correctness, bytes scanned, and simulated
// latency for worker fleets of 1..16, checking:
//   * pushdown results exactly match direct execution,
//   * per-worker runtime shrinks as the fleet grows (the reason CF can
//     absorb spikes),
//   * materialized views flow through object storage.
#include <chrono>
#include <cstdio>
#include <numeric>

#include "bench_util.h"
#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "turbo/cf_worker.h"
#include "workload/tpch.h"

using namespace pixels;
using namespace pixels::bench;

namespace {

std::vector<std::string> Rows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) rows.push_back(b->RowToString(r));
  }
  return rows;
}

}  // namespace

int main() {
  std::printf("=== E7: CF sub-plan pushdown (paper §3.1) ===\n\n");

  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  // Worker views go through this pass-through, which counts their writes
  // and deletes.
  FaultInjectingStorage view_store(storage, {});
  TpchOptions options;
  options.scale_factor = 0.01;
  options.rows_per_file = 4000;  // 15 lineitem files -> fleets up to 15
  Status st = GenerateTpch(catalog.get(), "tpch", options);
  if (!st.ok()) {
    std::printf("generation failed: %s\n", st.ToString().c_str());
    return 1;
  }

  CfServiceParams cf_params;
  bool ok = true;

  const struct {
    const char* name;
    const char* sql;
  } cases[] = {
      {"q1_aggregate",
       "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
       "sum(l_extendedprice), avg(l_discount), count(*) FROM lineitem WHERE "
       "l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus "
       "ORDER BY l_returnflag, l_linestatus"},
      {"q6_filter_sum",
       "SELECT sum(l_extendedprice * l_discount) FROM lineitem WHERE "
       "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
       "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
      {"join_agg",
       "SELECT o.o_orderpriority, count(*) AS n FROM orders o JOIN lineitem "
       "l ON o.o_orderkey = l.l_orderkey GROUP BY o.o_orderpriority ORDER BY "
       "o.o_orderpriority"},
  };

  for (const auto& c : cases) {
    ExecContext direct_ctx;
    direct_ctx.catalog = catalog.get();
    auto direct = ExecuteQuery(c.sql, "tpch", &direct_ctx);
    if (!direct.ok()) {
      std::printf("%s direct failed: %s\n", c.name,
                  direct.status().ToString().c_str());
      return 1;
    }
    std::printf("-- %s (direct: %llu bytes scanned) --\n", c.name,
                static_cast<unsigned long long>(direct_ctx.bytes_scanned));
    std::printf("%8s %10s %14s %16s %14s\n", "workers", "used", "match",
                "bytes_scanned", "sim_latency");

    double prev_latency = 1e18;
    bool monotonic = true;
    for (int workers : {1, 2, 4, 8, 16}) {
      auto plan = PlanQuery(c.sql, *catalog, "tpch");
      if (!plan.ok()) return 1;
      auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
      CfWorkerOptions wopts;
      wopts.num_workers = workers;
      wopts.intermediate_store = &view_store;
      wopts.view_prefix =
          "intermediate/" + std::string(c.name) + "." + std::to_string(workers);
      auto exec = ExecuteWithCfPushdown(*optimized, catalog.get(), wopts);
      if (!exec.ok()) {
        std::printf("pushdown failed: %s\n", exec.status().ToString().c_str());
        return 1;
      }
      bool match = Rows(**direct) == Rows(*exec->result);
      ok &= match;
      // Simulated CF latency: startup + per-worker share of the scan work.
      double per_worker_s = exec->work_vcpu_seconds /
                            std::max(exec->workers_used, 1) /
                            cf_params.vcpus_per_worker;
      double sim_latency = 1.0 + per_worker_s;  // 1s startup
      if (exec->workers_used > 1 && sim_latency > prev_latency + 1e-9) {
        monotonic = false;
      }
      prev_latency = sim_latency;
      std::printf("%8d %10d %14s %16llu %12.3fs\n", workers,
                  exec->workers_used, match ? "exact" : "MISMATCH",
                  static_cast<unsigned long long>(exec->bytes_scanned),
                  sim_latency);
    }
    ok &= Check(monotonic,
                std::string(c.name) + ": latency shrinks with fleet size");
    std::printf("\n");
  }
  Check(ok, "all pushdown results exactly match direct execution");

  // --- concurrent CF fleet: measured wall-clock overlap ---
  // The same 8-worker fleet run serially (fleet_parallelism = 1) vs
  // concurrently on the shared pool. Overlap means the concurrent fleet's
  // elapsed wall time is less than the sum of its per-worker times — the
  // property that lets hundreds of CF workers absorb a spike in parallel.
  std::printf("-- concurrent fleet overlap (q1_aggregate, 8 workers) --\n");
  bool overlap_ok = true;
  double serial_elapsed = 0, concurrent_elapsed = 0;
  for (int fleet_par : {1, 8}) {
    auto plan = PlanQuery(cases[0].sql, *catalog, "tpch");
    if (!plan.ok()) return 1;
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
    CfWorkerOptions wopts;
    wopts.num_workers = 8;
    wopts.fleet_parallelism = fleet_par;
    wopts.intermediate_store = &view_store;
    wopts.view_prefix = "intermediate/overlap." + std::to_string(fleet_par);
    const auto t0 = std::chrono::steady_clock::now();
    auto exec = ExecuteWithCfPushdown(*optimized, catalog.get(), wopts);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!exec.ok()) {
      std::printf("pushdown failed: %s\n", exec.status().ToString().c_str());
      return 1;
    }
    const double worker_sum =
        std::accumulate(exec->worker_elapsed_seconds.begin(),
                        exec->worker_elapsed_seconds.end(), 0.0);
    std::printf(
        "  fleet_parallelism=%d: wall %.1f ms, fleet %.1f ms, "
        "sum(worker wall) %.1f ms\n",
        fleet_par, elapsed * 1e3, exec->fleet_elapsed_seconds * 1e3,
        worker_sum * 1e3);
    if (fleet_par == 1) {
      serial_elapsed = exec->fleet_elapsed_seconds;
    } else {
      concurrent_elapsed = exec->fleet_elapsed_seconds;
      overlap_ok = exec->fleet_elapsed_seconds < worker_sum;
    }
  }
  std::printf("  serial fleet %.1f ms -> concurrent fleet %.1f ms (%.2fx)\n",
              serial_elapsed * 1e3, concurrent_elapsed * 1e3,
              concurrent_elapsed > 0 ? serial_elapsed / concurrent_elapsed
                                     : 0.0);
  ok &= Check(overlap_ok,
              "concurrent fleet elapsed < sum of per-worker wall times");
  std::printf("\n");

  auto views = storage->List("intermediate/");
  bool views_ok =
      Check(view_store.stats().write_ops >= 30 && views.ok() && views->empty(),
            "worker views written to object storage, read back and deleted");

  std::printf("\nE7 overall: %s\n", ok && views_ok ? "PASS" : "FAIL");
  return ok && views_ok ? 0 : 1;
}
