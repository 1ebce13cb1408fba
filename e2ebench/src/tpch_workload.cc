// tpch-vm and tpch-cf: the nine canned TPC-H queries at SF 0.1, real
// execution, one client in a closed loop through QueryServer::Submit.
//
//   tpch-vm  Relaxed level, free VM slots, engine pinned to one thread,
//            default 128 MB chunk cache (the data fits).
//   tpch-cf  Immediate level, zero VMs so every query runs in the CF
//            fleet, cf_shuffle on, 2 engine threads, 8 MB chunk cache.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "common/thread_pool.h"
#include "oracle.h"
#include "probes.h"
#include "server/query_server.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "timing_storage.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace e2e {

using namespace pixels;

namespace {

constexpr double kScaleFactor = 0.1;
constexpr int kSetupRepeats = 5;
/// peak_rss_mb is read after this many timed passes, not at the end of
/// the run: the CF fleet leaks its worker views into the in-memory store,
/// so a figure read at the end would grow with the engine's speed.
constexpr int kRssPasses = 3;
/// Share of the traced tpch-vm query wall time, in percent, that the timed
/// layers may leave unaccounted for.
constexpr double kMaxUnaccountedPct = 5;
constexpr const char* kDb = "tpch";
/// Queries of TpchQuerySet() whose core is a single equi-join: with
/// cf_shuffle on they must run as a shuffle DAG.
constexpr size_t kSingleJoin[] = {1, 4, 5, 6};

/// The generated data behind one catalog.
struct Dataset {
  std::shared_ptr<TimingStorage> timing;  // null unless traced
  std::shared_ptr<ObjectStore> store;     // the catalog's, counts requests
  std::shared_ptr<Catalog> catalog;
};

Result<Dataset> MakeDataset(uint64_t seed, bool traced) {
  Dataset d;
  std::shared_ptr<Storage> base = std::make_shared<MemoryStore>();
  if (traced) {
    d.timing = std::make_shared<TimingStorage>(base);
    base = d.timing;
  }
  d.store = std::make_shared<ObjectStore>(base);
  d.catalog = std::make_shared<Catalog>(d.store);
  TpchOptions topts;
  topts.scale_factor = kScaleFactor;
  topts.seed = seed;
  PIXELS_RETURN_NOT_OK(GenerateTpch(d.catalog.get(), kDb, topts));
  return d;
}

/// What one query of one pass produced.
struct QueryOutcome {
  bool settled = false;
  bool finished = false;
  std::string error;
  double submit_us = 0;
  double e2e_us = 0;
  uint64_t bytes = 0;
  double bill = 0;
  SimTime sim_latency = 0;
  bool used_cf = false;
  bool used_shuffle = false;
  uint64_t rf_pruned_row_groups = 0;
  TablePtr result;
};

/// One coordinator + query server over the shared catalog.
class Engine {
 public:
  Engine(std::shared_ptr<Catalog> catalog, bool cf, bool profiled)
      : cf_(cf), rng_(7) {
    CoordinatorParams cp;
    if (cf) {
      cp.vm.initial_vms = 0;
      cp.vm.min_vms = 0;
      cp.vm.max_vms = 0;
      cp.chunk_cache_bytes = 8ULL << 20;
      cp.cf_shuffle = true;
    }
    if (profiled) cp.trace_level = TraceLevel::kFull;
    coordinator_ =
        std::make_unique<Coordinator>(&clock_, &rng_, cp, std::move(catalog));
    server_ = std::make_unique<QueryServer>(&clock_, coordinator_.get());
    coordinator_->Start();
    session_ = server_->OpenSession();
  }

  ~Engine() { Finish(); }

  ServiceLevel level() const {
    return cf_ ? ServiceLevel::kImmediate : ServiceLevel::kRelaxed;
  }

  /// Submits one query and steps the clock until it settles.
  QueryOutcome Run(const std::string& sql) {
    const size_t seq = settle_counts_.size();
    settle_counts_.push_back(0);
    current_ = QueryOutcome{};
    Submission s;
    s.query.sql = sql;
    s.query.db = kDb;
    s.query.execute_real = true;
    s.level = level();
    s.session_id = session_;
    const auto t0 = WallClock::now();
    server_->Submit(std::move(s), [this, seq, t0](const SubmissionRecord& srec,
                                                  const QueryRecord& qrec) {
      // A late second settlement is counted, never applied.
      if (++settle_counts_[seq] > 1 || seq + 1 != settle_counts_.size()) {
        return;
      }
      QueryOutcome& out = current_;
      out.e2e_us = MicrosSince(t0);
      out.settled = true;
      out.finished = qrec.state == QueryState::kFinished;
      out.error = qrec.error;
      out.bytes = qrec.bytes_scanned;
      out.bill = srec.bill_usd;
      out.sim_latency = qrec.finish_time - srec.received_time;
      out.used_cf = qrec.used_cf;
      out.used_shuffle = qrec.used_shuffle;
      out.rf_pruned_row_groups = qrec.rf_pruned_row_groups;
      out.result = srec.result;
    });
    current_.submit_us = MicrosSince(t0);
    while (!current_.settled && clock_.Step()) {
    }
    billed_ += current_.bill;
    return current_;
  }

  /// Stops the server and drains the clock (idempotent).
  void Finish() {
    if (finished_) return;
    finished_ = true;
    server_->Stop();
    coordinator_->Stop();
    clock_.RunAll();
  }

  /// Submissions whose finish callback fired other than exactly once.
  size_t MisSettled() const {
    size_t bad = 0;
    for (int c : settle_counts_) bad += c != 1;
    return bad;
  }

  QueryServer& server() { return *server_; }
  Coordinator& coordinator() { return *coordinator_; }
  uint64_t submitted() const { return settle_counts_.size(); }
  double billed() const { return billed_; }
  double SimCostUsd() {
    return coordinator_->TotalVmCostUsd() + coordinator_->TotalCfCostUsd();
  }

 private:
  bool cf_;
  SimClock clock_;
  Random rng_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryServer> server_;
  int64_t session_ = 0;
  std::vector<int> settle_counts_;
  QueryOutcome current_;
  double billed_ = 0;
  bool finished_ = false;
};

/// Checks shared by every pass: the engine's answer, the bill recomputed
/// from the paper's price list, one settlement, stable bytes, the path.
class Checker {
 public:
  Checker(const TpchOracle* oracle, bool cf, RunResult* r)
      : oracle_(oracle), cf_(cf), r_(r) {}

  /// Returns false when the query failed (counted, not checked further).
  bool Check(size_t qi, const std::string& name, const QueryOutcome& q) {
    ++r_->attempted;
    if (!q.settled || !q.finished) {
      ++r_->failed;
      std::fprintf(stderr, "query %s failed: %s\n", name.c_str(),
                   q.settled ? q.error.c_str() : "never settled");
      return false;
    }
    if (q.result == nullptr) {
      r_->Fail(name + ": no result");
    } else {
      const std::string diff =
          CompareAnswer(oracle_->answer(qi), ResultRows(*q.result));
      if (!diff.empty()) r_->Fail(name + ": wrong answer: " + diff);
    }
    const int level = cf_ ? 0 : 1;
    const double bill =
        PaperPricePerTb(level) * static_cast<double>(q.bytes) / 1e12;
    if (std::fabs(bill - q.bill) > 1e-12 * std::max(bill, 1e-12)) {
      r_->Fail(name + ": bill does not match bytes_scanned x price");
    }
    auto [it, fresh] = bytes_.emplace(qi, q.bytes);
    if (!fresh && it->second != q.bytes) {
      r_->Fail(name + ": bytes_scanned changed between passes");
    }
    if (cf_ && !q.used_cf) r_->Fail(name + ": did not run in the CF fleet");
    if (cf_) {
      bool single_join = false;
      for (size_t j : kSingleJoin) single_join |= j == qi;
      if (single_join && !q.used_shuffle) {
        r_->Fail(name + ": single-join query did not use the shuffle DAG");
      }
    }
    return true;
  }

  /// Settlement and SLO accounting of a finished engine.
  void CheckSettlement(Engine& engine) {
    if (engine.MisSettled() > 0) {
      r_->Fail(std::to_string(engine.MisSettled()) +
               " submissions did not settle exactly once");
    }
    const double total = engine.server().TotalBilledUsd();
    if (std::fabs(total - engine.billed()) >
        1e-9 * std::max(total, 1e-12)) {
      r_->Fail("bills do not sum to TotalBilledUsd");
    }
    const SloReport rep = engine.server().SloReport();
    uint64_t settled = 0;
    for (const SloLevelReport& l : rep.levels) {
      if (l.met + l.violated + l.excluded != l.settled) {
        r_->Fail("SLO report: met + violated + excluded != settled");
      }
      settled += l.settled;
    }
    if (settled != engine.submitted()) {
      r_->Fail("SLO report settled " + std::to_string(settled) + " of " +
               std::to_string(engine.submitted()) + " submissions");
    }
  }

  uint64_t PassBytes() const {
    uint64_t sum = 0;
    for (const auto& [qi, b] : bytes_) sum += b;
    return sum;
  }
  uint64_t QueryBytes(size_t qi) const {
    auto it = bytes_.find(qi);
    return it == bytes_.end() ? 0 : it->second;
  }

 private:
  const TpchOracle* oracle_;
  bool cf_;
  RunResult* r_;
  std::map<size_t, uint64_t> bytes_;
};

/// Wall samples of the timed passes.
struct Timings {
  std::vector<std::vector<double>> e2e_us;     // per query
  std::vector<std::vector<double>> submit_us;  // per query
  double e2e_sum_us = 0;
  uint64_t queries = 0;
  uint64_t rf_pruned_row_groups = 0;
  double peak_rss_mb = 0;  // after kRssPasses passes

  double GeoMeanMs() const {
    std::vector<double> medians;
    for (const auto& v : e2e_us) medians.push_back(Median(v) / 1e3);
    return GeoMean(medians);
  }
  /// Queries per second of a pass in which every query takes its median
  /// time. Medians keep a slow moment of the machine from moving it.
  double QueriesPerSecond() const {
    double pass_us = 0;
    for (const auto& v : e2e_us) pass_us += Median(v);
    return pass_us > 0 ? static_cast<double>(e2e_us.size()) / (pass_us / 1e6)
                       : 0;
  }
};

/// Runs whole passes until `seconds` of wall time have elapsed, and at
/// least kRssPasses of them.
void TimedPasses(Engine& engine, Checker& checker, double seconds,
                 Timings* t) {
  const auto& queries = TpchQuerySet();
  t->e2e_us.resize(queries.size());
  t->submit_us.resize(queries.size());
  const auto start = WallClock::now();
  int passes = 0;
  do {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryOutcome q = engine.Run(queries[qi].sql);
      if (!checker.Check(qi, queries[qi].name, q)) continue;
      t->e2e_us[qi].push_back(q.e2e_us);
      t->submit_us[qi].push_back(q.submit_us);
      t->e2e_sum_us += q.e2e_us;
      t->rf_pruned_row_groups += q.rf_pruned_row_groups;
      ++t->queries;
    }
    if (++passes == kRssPasses) t->peak_rss_mb = PeakRssMb();
  } while (passes < kRssPasses || SecondsSince(start) < seconds);
}

/// The untimed first pass: checks, and shows the answer check rejects
/// perturbed answers. Returns the simulated latencies of the pass.
std::vector<double> WarmUp(Engine& engine, Checker& checker,
                           const TpchOracle& oracle, RunResult* r) {
  const auto& queries = TpchQuerySet();
  std::vector<double> sim_latency_s;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryOutcome q = engine.Run(queries[qi].sql);
    if (!checker.Check(qi, queries[qi].name, q) || q.result == nullptr) {
      continue;
    }
    sim_latency_s.push_back(static_cast<double>(q.sim_latency) / kSeconds);
    for (const std::string& miss :
         CheckerMisses(oracle.answer(qi), ResultRows(*q.result))) {
      r->Fail(queries[qi].name + ": answer check missed a " + miss);
    }
  }
  return sim_latency_s;
}

/// Row counts and encoded size of the generated tables, on stderr.
void PrintDataset(const Catalog& catalog) {
  uint64_t bytes = 0;
  std::string line = "dataset:";
  for (const char* table : {"lineitem", "orders", "customer", "part",
                            "supplier", "nation", "region"}) {
    auto t = catalog.GetTable(kDb, table);
    if (!t.ok()) continue;
    line += std::string(" ") + table + "=" + std::to_string((*t)->row_count);
    bytes += (*t)->total_bytes;
  }
  std::fprintf(stderr, "%s rows, %.1f MB of .pxl\n", line.c_str(),
               static_cast<double>(bytes) / 1e6);
}

/// Per-query medians and bills on stderr, for reading alongside the
/// result line.
void PrintQueryTable(const Timings& t, const Checker& checker) {
  const auto& queries = TpchQuerySet();
  std::fprintf(stderr, "%-24s %8s %10s %12s\n", "query", "runs", "median_ms",
               "billed_MB");
  for (size_t qi = 0; qi < queries.size() && qi < t.e2e_us.size(); ++qi) {
    std::fprintf(stderr, "%-24s %8zu %10.3f %12.3f\n", queries[qi].name.c_str(),
                 t.e2e_us[qi].size(), Median(t.e2e_us[qi]) / 1e3,
                 static_cast<double>(checker.QueryBytes(qi)) / 1e6);
  }
}

size_t ObjectsLeft(Catalog* catalog) {
  auto listed = catalog->storage()->List("intermediate/");
  return listed.ok() ? listed->size() : 0;
}

}  // namespace

RunResult RunTpch(const Options& options, bool cf) {
  RunResult r;
  SetDefaultParallelism(cf ? 2 : 1);

  // Set-up: generate and load the data several times; keep the last.
  std::vector<double> setup_s;
  Dataset data;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    data = Dataset{};
    const auto t0 = WallClock::now();
    auto made = MakeDataset(options.seed, options.trace);
    setup_s.push_back(SecondsSince(t0));
    if (!made.ok()) {
      r.Fail("set-up failed: " + made.status().ToString());
      return r;
    }
    data = std::move(made).ValueOrDie();
  }
  PrintDataset(*data.catalog);
  TpchOracle oracle;
  if (Status st = oracle.Build(data.catalog.get(), kDb); !st.ok()) {
    r.Fail("oracle failed: " + st.ToString());
    return r;
  }
  if (oracle.size() != TpchQuerySet().size()) {
    r.Fail("oracle covers " + std::to_string(oracle.size()) + " queries");
    return r;
  }
  Checker checker(&oracle, cf, &r);

  if (!options.trace) {
    Engine engine(data.catalog, cf, /*profiled=*/false);
    const std::vector<double> sim_latency_s =
        WarmUp(engine, checker, oracle, &r);
    const double sim_cost = engine.SimCostUsd();
    Timings t;
    TimedPasses(engine, checker, options.seconds, &t);
    engine.Finish();
    checker.CheckSettlement(engine);
    PrintQueryTable(t, checker);

    const double qps = t.QueriesPerSecond();
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("queries_per_s", qps, "1/s");
    r.Set("submissions_per_s", qps, "1/s");
    r.Set("query_ms_geomean", t.GeoMeanMs(), "ms");
    r.Set("billed_mb_per_query",
          static_cast<double>(checker.PassBytes()) / 1e6 /
              static_cast<double>(TpchQuerySet().size()),
          "MB");
    r.Set("peak_rss_mb", t.peak_rss_mb, "MB");
    // The queries' times cluster far apart, so the median over the
    // queries of each query's median is steadier than a pooled median.
    std::vector<double> submit_medians, submit_all;
    for (const auto& v : t.submit_us) {
      submit_medians.push_back(Median(v));
      submit_all.insert(submit_all.end(), v.begin(), v.end());
    }
    r.Set("submit_us_p50", Median(submit_medians), "us");
    r.Set("submit_us_p99.99", TailValue(submit_all, 10), "us");
    r.Set("sim_cost_usd", sim_cost, "USD");
    r.Set("sim_latency_s_p99", Percentile(sim_latency_s, 99), "virtual_s");
    return r;
  }

  // Traced: a third of the time untraced, the rest with the coordinator
  // profiling every operator and the probes timing every layer call.
  Timings plain;
  {
    Engine engine(data.catalog, cf, /*profiled=*/false);
    WarmUp(engine, checker, oracle, &r);
    TimedPasses(engine, checker, options.seconds / 3, &plain);
    engine.Finish();
    checker.CheckSettlement(engine);
  }
  Engine engine(data.catalog, cf, /*profiled=*/true);
  WarmUp(engine, checker, oracle, &r);
  const ObjectStoreStats s0 = data.store->stats();
  const double get_us0 = data.timing->GetMicros();
  const double put_us0 = data.timing->PutMicros();
  MetricsRegistry m0 = engine.coordinator().MetricsSnapshot();
  const uint64_t messages0 = engine.server().dispatcher_stats().messages;
  ProbesTake();
  ProbesEnable(true);
  Timings traced;
  TimedPasses(engine, checker, options.seconds * 2 / 3, &traced);
  ProbesEnable(false);
  const LayerTotals L = ProbesTake();
  const ObjectStoreStats s1 = data.store->stats();
  const double get_us = data.timing->GetMicros() - get_us0;
  const double put_us = data.timing->PutMicros() - put_us0;
  MetricsRegistry m1 = engine.coordinator().MetricsSnapshot();
  const uint64_t messages = engine.server().dispatcher_stats().messages -
                            messages0;
  engine.Finish();
  checker.CheckSettlement(engine);

  const double n = std::max<double>(1, static_cast<double>(traced.queries));
  const double ops_us = L.scan_us + L.filter_us + L.agg_us + L.join_us +
                        L.project_us + L.sort_us;
  r.Set("sql.parse_us", L.parse_us / n, "us");
  r.Set("plan.bind_us", L.bind_us / n, "us");
  r.Set("plan.optimize_us", L.optimize_us / n, "us");
  r.Set("plan.split_us", L.split_us / n, "us");
  r.Set("exec.scan_ms", L.scan_us / n / 1e3, "ms");
  r.Set("exec.filter_ms", L.filter_us / n / 1e3, "ms");
  r.Set("exec.agg_ms", L.agg_us / n / 1e3, "ms");
  r.Set("exec.join_ms", L.join_us / n / 1e3, "ms");
  r.Set("exec.project_ms", L.project_us / n / 1e3, "ms");
  r.Set("exec.sort_ms", L.sort_us / n / 1e3, "ms");
  r.Set("exec.rows_scanned", static_cast<double>(L.rows_scanned) / n, "count");
  r.Set("exec.rf_pruned_row_groups",
        static_cast<double>(traced.rf_pruned_row_groups) / n, "count");
  r.Set("format.decode_ms", L.decode_us / n / 1e3, "ms");
  r.Set("storage.gets",
        static_cast<double>(s1.get_requests - s0.get_requests) / n, "count");
  r.Set("storage.get_mb",
        static_cast<double>(s1.bytes_read - s0.bytes_read) / 1e6 / n, "MB");
  r.Set("storage.get_ms", get_us / 1e3 / n, "ms");
  r.Set("storage.puts",
        static_cast<double>(s1.put_requests - s0.put_requests) / n, "count");
  r.Set("storage.put_mb",
        static_cast<double>(s1.bytes_written - s0.bytes_written) / 1e6 / n,
        "MB");
  r.Set("storage.put_ms", put_us / 1e3 / n, "ms");
  const double hits =
      m1.Gauge("chunk_cache_hits") - m0.Gauge("chunk_cache_hits");
  const double misses =
      m1.Gauge("chunk_cache_misses") - m0.Gauge("chunk_cache_misses");
  r.Set("storage.cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  r.Set("storage.objects_left",
        static_cast<double>(ObjectsLeft(data.catalog.get())), "count");
  r.Set("turbo.cf_exec_ms", L.cf_exec_us / n / 1e3, "ms");
  r.Set("turbo.worker_ms", L.worker_us / n / 1e3, "ms");
  r.Set("turbo.fleet_ms", L.fleet_us / n / 1e3, "ms");
  r.Set("turbo.workers", static_cast<double>(L.workers) / n, "count");
  r.Set("turbo.shuffle_mb", static_cast<double>(L.shuffle_bytes) / 1e6 / n,
        "MB");
  r.Set("turbo.coordinator_us", (traced.e2e_sum_us - L.engine_us) / n, "us");
  r.Set("server.dispatcher_messages", static_cast<double>(messages) / n,
        "count");
  // How much of the traced query wall time the timed layers account
  // for, and what tracing costs against the untraced third.
  const double layers_us = L.parse_us + L.bind_us + L.optimize_us +
                           (cf ? L.cf_exec_us : ops_us);
  const double unaccounted_pct =
      traced.e2e_sum_us > 0
          ? 100.0 * (traced.e2e_sum_us - layers_us) / traced.e2e_sum_us
          : 0;
  r.Set("trace.unaccounted_pct", unaccounted_pct, "%");
  if (!cf && unaccounted_pct > kMaxUnaccountedPct) {
    r.Fail("timed layers leave " + std::to_string(unaccounted_pct) +
           "% of the traced query wall time unaccounted for");
  }
  r.Set("trace.overhead_pct",
        100.0 * (traced.GeoMeanMs() / std::max(plain.GeoMeanMs(), 1e-9) - 1),
        "%");
  FillAbsentLayers(&r);
  return r;
}

}  // namespace e2e
