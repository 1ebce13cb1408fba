// Layer probes of the traced build (bench_e2e_traced). The engine is not
// instrumented: the traced binary is linked with `-Wl,--wrap` for a few
// public functions of the sql, plan, exec, format and turbo layers (see
// CMakeLists.txt), and probes.cc times each call before forwarding it to
// the real function. The untraced build links probes_stub.cc instead, so
// its call paths are the engine's own.
#pragma once

#include <cstdint>

namespace e2e {

/// Totals accumulated while probes are enabled. Times are microseconds.
struct LayerTotals {
  double parse_us = 0;     // ParseSelect
  double bind_us = 0;      // PlanQuery minus the ParseSelect inside it
  double optimize_us = 0;  // Optimize
  double split_us = 0;     // SplitForCf
  double cf_exec_us = 0;   // ExecuteWithCfPushdown
  /// Engine calls made by the coordinator on the simulation thread:
  /// ExecuteQuery on the VM path; PlanQuery + Optimize +
  /// ExecuteWithCfPushdown on the CF path. Query wall time minus this is
  /// the coordinator's own share.
  double engine_us = 0;
  /// Row-group reads of the format layer minus the storage time inside
  /// them (all threads).
  double decode_us = 0;
  /// From the CfExecution of each ExecuteWithCfPushdown call.
  double worker_us = 0;
  double fleet_us = 0;
  uint64_t workers = 0;
  uint64_t shuffle_bytes = 0;
  /// Operator self-times (inclusive wall minus children) from each
  /// query's QueryProfile, by operator family.
  double scan_us = 0;     // Scan(...) and MaterializedView leaves
  double filter_us = 0;   // Filter
  double agg_us = 0;      // HashAgg, Distinct
  double join_us = 0;     // HashJoin
  double project_us = 0;  // Project
  double sort_us = 0;     // Sort, Limit
  uint64_t rows_scanned = 0;  // rows out of Scan(...) operators
};

/// False in the untraced build.
bool ProbesLinked();

/// Starts/stops accumulation. The calling thread becomes the simulation
/// thread that `engine_us` is attributed to.
void ProbesEnable(bool on);

/// Returns the totals since the last call and resets them.
LayerTotals ProbesTake();

}  // namespace e2e
