// Wrappers behind `-Wl,--wrap=<symbol>`: the linker resolves every call
// the engine makes to <symbol> to __wrap_<symbol> below, and
// __real_<symbol> to the engine's definition. Only calls that cross a
// translation unit are redirected, which is what makes these the layers'
// public entry points. CMakeLists.txt holds the symbol list and defines
// each as the string macro E2E_SYM_<KEY> used here.
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "exec/executor.h"
#include "exec/profile.h"
#include "format/reader.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/subplan.h"
#include "probes.h"
#include "sql/parser.h"
#include "timing_storage.h"
#include "turbo/cf_worker.h"

using namespace pixels;

#define E2E_DECLARE(ret, name, sym, ...)                 \
  ret Real##name(__VA_ARGS__) __asm__("__real_" sym);    \
  ret Wrap##name(__VA_ARGS__) __asm__("__wrap_" sym)

E2E_DECLARE(Result<SelectStmtPtr>, Parse, E2E_SYM_PARSE,
            const std::string&);
E2E_DECLARE(Result<PlanPtr>, Plan, E2E_SYM_PLAN, const std::string&,
            const Catalog&, const std::string&);
E2E_DECLARE(Result<PlanPtr>, Optimize, E2E_SYM_OPTIMIZE, PlanPtr,
            const Catalog&, OptimizerOptions);
E2E_DECLARE(Result<SubPlanSplit>, Split, E2E_SYM_SPLIT, const PlanPtr&);
E2E_DECLARE(Result<CfExecution>, CfExec, E2E_SYM_CF_EXEC, const PlanPtr&,
            Catalog*, const CfWorkerOptions&);
E2E_DECLARE(Result<TablePtr>, ExecQuery, E2E_SYM_EXEC_QUERY,
            const std::string&, const std::string&, ExecContext*);
E2E_DECLARE(std::string, ToText, E2E_SYM_TO_TEXT, const QueryProfile*);
E2E_DECLARE(Result<RowBatchPtr>, ReadRg, E2E_SYM_READ_RG, PixelsReader*,
            size_t, const std::vector<std::string>&);
E2E_DECLARE(Result<RowBatchPtr>, ReadRgStats, E2E_SYM_READ_RG_STATS,
            const PixelsReader*, size_t, const std::vector<std::string>&,
            ScanStats*);
E2E_DECLARE(Result<RowBatchPtr>, ReadRgFiltered, E2E_SYM_READ_RG_FILTERED,
            const PixelsReader*, size_t, const std::vector<std::string>&,
            const std::vector<ScanPredicate>&, ScanStats*);

namespace e2e {
namespace {

std::atomic<bool> g_on{false};
std::thread::id g_sim_thread;
std::mutex g_mu;  // guards g_totals
LayerTotals g_totals;
thread_local int t_engine_depth = 0;  // nesting of engine calls
thread_local double t_parse_us = 0;   // ParseSelect time on this thread

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

bool OnSimThread() { return std::this_thread::get_id() == g_sim_thread; }

/// Times one engine entry point on the simulation thread: the outermost
/// call's time counts toward `engine_us`.
class EngineCall {
 public:
  EngineCall() : outer_(OnSimThread() && t_engine_depth == 0) {
    ++t_engine_depth;
  }
  ~EngineCall() {
    --t_engine_depth;
    if (outer_) {
      std::lock_guard<std::mutex> lock(g_mu);
      g_totals.engine_us += UsSince(start_);
    }
  }
  double ElapsedUs() const { return UsSince(start_); }

 private:
  bool outer_;
  Clock::time_point start_ = Clock::now();
};

void Add(double LayerTotals::*field, double us) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_totals.*field += us;
}

/// Self-time of each operator = inclusive wall minus its children's.
void FoldProfile(const OperatorProfile& node, LayerTotals* t) {
  uint64_t children_us = 0;
  for (const OperatorProfile* c : node.children) {
    children_us += c->wall_us.load();
    FoldProfile(*c, t);
  }
  const uint64_t wall = node.wall_us.load();
  const double self = static_cast<double>(wall > children_us ? wall - children_us
                                                             : 0);
  const std::string& n = node.name;
  if (n.rfind("Scan(", 0) == 0) {
    t->scan_us += self;
    t->rows_scanned += node.rows_out.load();
  } else if (n == "MaterializedView") {
    t->scan_us += self;
  } else if (n == "Filter") {
    t->filter_us += self;
  } else if (n == "HashAgg" || n == "Distinct") {
    t->agg_us += self;
  } else if (n == "HashJoin") {
    t->join_us += self;
  } else if (n == "Project") {
    t->project_us += self;
  } else if (n == "Sort" || n == "Limit") {
    t->sort_us += self;
  }
  // Cf* nodes are worker aggregates without wall time; turbo.* covers them.
}

/// Format-layer time of one row-group read: its wall minus the storage
/// time spent inside it on this thread.
template <typename Fn>
auto TimedRead(Fn&& fn) {
  if (!g_on.load(std::memory_order_relaxed)) return fn();
  const double storage0 = TimingStorage::ThreadMicros();
  const auto t0 = Clock::now();
  auto r = fn();
  const double us =
      UsSince(t0) - (TimingStorage::ThreadMicros() - storage0);
  Add(&LayerTotals::decode_us, us > 0 ? us : 0);
  return r;
}

}  // namespace

bool ProbesLinked() { return true; }

void ProbesEnable(bool on) {
  g_sim_thread = std::this_thread::get_id();
  g_on.store(on);
}

LayerTotals ProbesTake() {
  std::lock_guard<std::mutex> lock(g_mu);
  LayerTotals out = g_totals;
  g_totals = LayerTotals{};
  return out;
}

}  // namespace e2e

using e2e::EngineCall;
using e2e::g_on;
using e2e::LayerTotals;

Result<SelectStmtPtr> WrapParse(const std::string& sql) {
  if (!g_on.load(std::memory_order_relaxed)) return RealParse(sql);
  const auto t0 = e2e::Clock::now();
  auto r = RealParse(sql);
  const double us = e2e::UsSince(t0);
  e2e::t_parse_us += us;
  e2e::Add(&LayerTotals::parse_us, us);
  return r;
}

Result<PlanPtr> WrapPlan(const std::string& sql, const Catalog& catalog,
                         const std::string& db) {
  if (!g_on.load(std::memory_order_relaxed)) return RealPlan(sql, catalog, db);
  const double parse0 = e2e::t_parse_us;
  EngineCall call;
  auto r = RealPlan(sql, catalog, db);
  e2e::Add(&LayerTotals::bind_us,
           call.ElapsedUs() - (e2e::t_parse_us - parse0));
  return r;
}

Result<PlanPtr> WrapOptimize(PlanPtr plan, const Catalog& catalog,
                             OptimizerOptions options) {
  if (!g_on.load(std::memory_order_relaxed)) {
    return RealOptimize(std::move(plan), catalog, options);
  }
  EngineCall call;
  auto r = RealOptimize(std::move(plan), catalog, options);
  e2e::Add(&LayerTotals::optimize_us, call.ElapsedUs());
  return r;
}

Result<SubPlanSplit> WrapSplit(const PlanPtr& plan) {
  if (!g_on.load(std::memory_order_relaxed)) return RealSplit(plan);
  const auto t0 = e2e::Clock::now();
  auto r = RealSplit(plan);
  e2e::Add(&LayerTotals::split_us, e2e::UsSince(t0));
  return r;
}

Result<CfExecution> WrapCfExec(const PlanPtr& plan, Catalog* catalog,
                               const CfWorkerOptions& options) {
  if (!g_on.load(std::memory_order_relaxed)) {
    return RealCfExec(plan, catalog, options);
  }
  EngineCall call;
  auto r = RealCfExec(plan, catalog, options);
  const double us = call.ElapsedUs();
  std::lock_guard<std::mutex> lock(e2e::g_mu);
  e2e::g_totals.cf_exec_us += us;
  if (r.ok()) {
    for (double s : r->worker_elapsed_seconds) {
      e2e::g_totals.worker_us += s * 1e6;
    }
    e2e::g_totals.fleet_us += r->fleet_elapsed_seconds * 1e6;
    e2e::g_totals.workers += static_cast<uint64_t>(r->workers_used);
    e2e::g_totals.shuffle_bytes +=
        r->shuffle_bytes_written + r->shuffle_bytes_read;
  }
  return r;
}

Result<TablePtr> WrapExecQuery(const std::string& sql, const std::string& db,
                               ExecContext* ctx) {
  if (!g_on.load(std::memory_order_relaxed)) {
    return RealExecQuery(sql, db, ctx);
  }
  EngineCall call;
  return RealExecQuery(sql, db, ctx);
}

std::string WrapToText(const QueryProfile* profile) {
  if (g_on.load(std::memory_order_relaxed)) {
    LayerTotals t;
    for (const OperatorProfile* root : profile->Roots()) {
      e2e::FoldProfile(*root, &t);
    }
    std::lock_guard<std::mutex> lock(e2e::g_mu);
    LayerTotals& g = e2e::g_totals;
    g.scan_us += t.scan_us;
    g.filter_us += t.filter_us;
    g.agg_us += t.agg_us;
    g.join_us += t.join_us;
    g.project_us += t.project_us;
    g.sort_us += t.sort_us;
    g.rows_scanned += t.rows_scanned;
  }
  return RealToText(profile);
}

Result<RowBatchPtr> WrapReadRg(PixelsReader* reader, size_t index,
                               const std::vector<std::string>& columns) {
  return e2e::TimedRead([&] { return RealReadRg(reader, index, columns); });
}

Result<RowBatchPtr> WrapReadRgStats(const PixelsReader* reader, size_t index,
                                    const std::vector<std::string>& columns,
                                    ScanStats* stats) {
  return e2e::TimedRead(
      [&] { return RealReadRgStats(reader, index, columns, stats); });
}

Result<RowBatchPtr> WrapReadRgFiltered(
    const PixelsReader* reader, size_t index,
    const std::vector<std::string>& columns,
    const std::vector<ScanPredicate>& predicates, ScanStats* stats) {
  return e2e::TimedRead([&] {
    return RealReadRgFiltered(reader, index, columns, predicates, stats);
  });
}
