// E13/E14 — Vectorized kernels, fused decode+filter, runtime filters,
// and typed hash join/aggregation.
//
// Four measurements over real engine paths:
//   1. Predicate kernels: CompiledPredicate::Select vs the row-at-a-time
//      reference evaluator (tests/testing/reference_eval.h) on an
//      in-memory batch, swept over selectivity.
//   2. Fused decode+filter: a selective filter scan executed with
//      fused_decode on vs off (same bill, fewer rows materialized).
//   3. Runtime filters: a clustered fact ⋈ small dim join with filters
//      on vs off — identical results, measurably fewer billed bytes,
//      and the exact audit bytes_off == bytes_on + rf_skipped_bytes.
//   4. Typed hash tables (E14): hash aggregation and equi-join with
//      vectorized_hash on vs off, swept over key cardinality and probe
//      selectivity — identical rows and bills, typed path faster.
//
// The full run prints the tables and writes BENCH_kernels.json
// (machine-readable, checked in). `--kernels-smoke` runs the CI gate:
// every correctness/audit invariant above plus "kernels are not slower
// than scalar on a selective filter". `--hash-smoke` gates the typed
// hash path: identical results/bills across the sweep and a noise-robust
// speedup floor on the high-cardinality group-by and selective join.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/kernels.h"
#include "format/writer.h"
#include "sql/parser.h"
#include "storage/memory_store.h"
#include "testing/reference_eval.h"

using namespace pixels;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowMs();
    fn();
    const double t1 = NowMs();
    if (t1 - t0 < best) best = t1 - t0;
  }
  return best;
}

// ---- 1. predicate kernels on an in-memory batch ----

RowBatchPtr MakeKernelBatch(size_t rows) {
  Random rng(11);
  auto batch = std::make_shared<RowBatch>();
  auto a = MakeVector(TypeId::kInt64);
  auto b = MakeVector(TypeId::kDouble);
  auto s = MakeVector(TypeId::kString);
  const char* words[] = {"red", "green", "blue", "cyan"};
  for (size_t i = 0; i < rows; ++i) {
    a->AppendInt(rng.Uniform(0, 1000000));
    b->AppendDouble(rng.UniformDouble(0, 1));
    s->AppendString(words[rng.Uniform(0, 3)]);
  }
  batch->AddColumn("t.a", a);
  batch->AddColumn("t.b", b);
  batch->AddColumn("t.s", s);
  return batch;
}

SelectionVector ScalarSelect(const Expr& pred, const RowBatch& batch) {
  auto col = testing::ReferenceEvaluateExpr(pred, batch);
  SelectionVector sel;
  if (!col.ok()) return sel;
  for (size_t i = 0; i < (*col)->size(); ++i) {
    if (!(*col)->IsNull(i) && (*col)->GetValue(i).i != 0) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  return sel;
}

struct SweepPoint {
  double selectivity;
  double scalar_ms;
  double kernel_ms;
  double speedup;
  bool identical;
};

std::vector<SweepPoint> RunKernelSweep(size_t rows, int reps) {
  auto batch = MakeKernelBatch(rows);
  std::vector<SweepPoint> points;
  for (double target : {0.01, 0.1, 0.5, 0.9}) {
    const int64_t threshold = static_cast<int64_t>(1000000 * target);
    const std::string text = "a < " + std::to_string(threshold);
    auto pred = ParseExpression(text);
    if (!pred.ok()) continue;
    auto compiled = CompiledPredicate::Compile(**pred);

    SelectionVector scalar_sel, kernel_sel;
    const double scalar_ms =
        TimeMs(reps, [&] { scalar_sel = ScalarSelect(**pred, *batch); });
    const double kernel_ms = TimeMs(reps, [&] {
      auto r = compiled.Select(*batch);
      if (r.ok()) kernel_sel = std::move(*r);
    });
    points.push_back({target, scalar_ms, kernel_ms,
                      kernel_ms > 0 ? scalar_ms / kernel_ms : 0,
                      scalar_sel == kernel_sel});
  }
  return points;
}

// ---- 2 & 3. engine-level scans and joins ----

/// Benches run over data they just wrote; any failure here is a bug.
void Check(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n", s.ToString().c_str());
    std::abort();
  }
}

// fact: `rows` rows in row groups of 4096, key clustered so a join
// against dim (keys < dim_keys) prunes most row groups by range.
std::shared_ptr<Catalog> BuildBenchCatalog(int rows, int dim_keys) {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  Check(catalog->CreateDatabase("db"));
  {
    FileSchema schema = {{"k", TypeId::kInt64},
                         {"v", TypeId::kInt64},
                         {"tag", TypeId::kString}};
    Check(catalog->CreateTable("db", "fact", schema));
    WriterOptions options;
    options.row_group_size = 4096;
    PixelsWriter writer(schema, options);
    const char* tags[] = {"red", "green", "blue"};
    const int keys_per_group = 64;  // k advances with the row groups
    for (int i = 0; i < rows; ++i) {
      const int64_t k = i / (4096 / keys_per_group);
      Check(writer.AppendRow({Value::Int(k), Value::Int(i % 1000),
                              Value::String(tags[i % 3])}));
    }
    Check(writer.Finish(storage.get(), "db/fact/part0.pxl"));
    Check(catalog->AddTableFile("db", "fact", "db/fact/part0.pxl"));
  }
  {
    FileSchema schema = {{"k", TypeId::kInt64}, {"name", TypeId::kString}};
    Check(catalog->CreateTable("db", "dim", schema));
    PixelsWriter writer(schema);
    for (int k = 0; k < dim_keys; ++k) {
      Check(writer.AppendRow(
          {Value::Int(k), Value::String("d" + std::to_string(k))}));
    }
    Check(writer.Finish(storage.get(), "db/dim/part0.pxl"));
    Check(catalog->AddTableFile("db", "dim", "db/dim/part0.pxl"));
  }
  return catalog;
}

struct EngineRun {
  std::vector<std::string> rows;
  uint64_t bytes = 0;
  uint64_t rf_skipped = 0;
  uint64_t rf_pruned_row_groups = 0;
};

EngineRun RunQuery(Catalog* catalog, const std::string& sql, bool fused,
                   bool runtime_filters) {
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.fused_decode = fused;
  ctx.runtime_filters = runtime_filters;
  ctx.parallelism = 1;
  EngineRun run;
  auto result = ExecuteQuery(sql, "db", &ctx);
  if (result.ok()) {
    for (const auto& b : (*result)->batches()) {
      for (size_t r = 0; r < b->num_rows(); ++r) {
        run.rows.push_back(b->RowToString(r));
      }
    }
  }
  run.bytes = ctx.bytes_scanned.load();
  run.rf_skipped = ctx.rf_skipped_bytes.load();
  run.rf_pruned_row_groups = ctx.rf_pruned_row_groups.load();
  return run;
}

// ---- 4. typed hash join & aggregation (E14) ----

// h: `rows` rows with group keys at three cardinalities (10 / 10k /
// all-distinct) and a uniform value column for probe selectivity.
// hd_small / hd_big: join build sides of 1k / 100k distinct keys.
std::shared_ptr<Catalog> BuildHashCatalog(int rows) {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  Check(catalog->CreateDatabase("db"));
  {
    FileSchema schema = {{"k_lo", TypeId::kInt64},
                         {"k_mid", TypeId::kInt64},
                         {"k_hi", TypeId::kInt64},
                         {"v", TypeId::kInt64}};
    Check(catalog->CreateTable("db", "h", schema));
    WriterOptions options;
    options.row_group_size = 4096;
    PixelsWriter writer(schema, options);
    for (int i = 0; i < rows; ++i) {
      Check(writer.AppendRow({Value::Int(i % 10), Value::Int(i % 10000),
                              Value::Int(i), Value::Int(i % 1000)}));
    }
    Check(writer.Finish(storage.get(), "db/h/part0.pxl"));
    Check(catalog->AddTableFile("db", "h", "db/h/part0.pxl"));
  }
  auto make_dim = [&](const char* name, int keys) {
    FileSchema schema = {{"k", TypeId::kInt64}, {"w", TypeId::kInt64}};
    Check(catalog->CreateTable("db", name, schema));
    PixelsWriter writer(schema);
    for (int k = 0; k < keys; ++k) {
      Check(writer.AppendRow({Value::Int(k), Value::Int(k % 7)}));
    }
    const std::string path = std::string("db/") + name + "/part0.pxl";
    Check(writer.Finish(storage.get(), path));
    Check(catalog->AddTableFile("db", name, path));
  };
  make_dim("hd_small", 1000);
  make_dim("hd_big", std::min(rows, 100000));
  return catalog;
}

struct HashRun {
  TablePtr table;
  uint64_t bytes = 0;
};

HashRun ExecHashQuery(Catalog* catalog, const std::string& sql, bool typed,
                      bool rf = true) {
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.vectorized_hash = typed;
  ctx.runtime_filters = rf;
  ctx.parallelism = 1;
  HashRun run;
  auto result = ExecuteQuery(sql, "db", &ctx);
  if (result.ok()) run.table = *result;
  run.bytes = ctx.bytes_scanned.load();
  return run;
}

/// Order-insensitive row set (scalar and typed emit orders may differ).
std::vector<std::string> SortedTableRows(const TablePtr& table) {
  std::vector<std::string> rows;
  if (table == nullptr) return rows;
  for (const auto& b : table->batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) {
      rows.push_back(b->RowToString(r));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct HashPoint {
  const char* op;     // "agg" | "join"
  const char* label;  // human-readable sweep point
  long long cardinality;
  double selectivity;
  double scalar_ms;
  double typed_ms;
  double speedup;
  bool identical;
  bool bytes_equal;
};

std::vector<HashPoint> RunHashSweep(Catalog* catalog, int rows, int reps) {
  std::vector<HashPoint> points;
  auto run_point = [&](const char* op, const char* label, long long card,
                       double sel, const std::string& sql, bool rf = true) {
    HashRun scalar, typed;
    // Time the engine only; result-set stringification (identical work on
    // both paths) happens outside the timer.
    const double scalar_ms =
        TimeMs(reps, [&] { scalar = ExecHashQuery(catalog, sql, false, rf); });
    const double typed_ms =
        TimeMs(reps, [&] { typed = ExecHashQuery(catalog, sql, true, rf); });
    const auto scalar_rows = SortedTableRows(scalar.table);
    const auto typed_rows = SortedTableRows(typed.table);
    points.push_back({op, label, card, sel, scalar_ms, typed_ms,
                      typed_ms > 0 ? scalar_ms / typed_ms : 0,
                      !scalar_rows.empty() && scalar_rows == typed_rows,
                      scalar.bytes == typed.bytes});
  };

  // Aggregation: key cardinality x probe selectivity. The WHERE v < 50
  // points route a 5%-selectivity selection vector into the agg.
  for (const auto& key : {std::make_pair("k_lo", 10LL),
                          std::make_pair("k_mid", 10000LL),
                          std::make_pair("k_hi", static_cast<long long>(rows))}) {
    const std::string grouped = std::string("SELECT ") + key.first +
                                ", count(*) AS c, sum(v) AS s FROM h GROUP BY " +
                                key.first;
    const std::string filtered = std::string("SELECT ") + key.first +
                                 ", count(*) AS c, sum(v) AS s FROM h WHERE "
                                 "v < 50 GROUP BY " +
                                 key.first;
    run_point("agg", "group-by full scan", key.second, 1.0, grouped);
    run_point("agg", "group-by 5% filter", key.second, 0.05, filtered);
  }

  // Join: build-side cardinality doubles as probe selectivity (matched
  // probe fraction = dim keys / rows); k_mid vs hd_big exercises
  // duplicate probe hits per build key.
  run_point("join", "selective equi-join (0.1% match)", 1000,
            1000.0 / rows,
            "SELECT count(*) AS c, sum(h.v) AS s FROM h JOIN hd_small d "
            "ON h.k_hi = d.k");
  // With runtime filters on, the selective probe is mostly pruned at the
  // scan (zone maps + bloom), so the join operator barely runs on either
  // path. The rf-off point (same setting on both sides, so bills still
  // match) sends every probe row through the operator and measures the
  // join itself: the scalar path pays a serialized-key multimap lookup
  // per probe row, the typed path a batch hash + table probe.
  run_point("join", "selective, rf off (raw probe)", 1000, 1000.0 / rows,
            "SELECT count(*) AS c, sum(h.v) AS s FROM h JOIN hd_small d "
            "ON h.k_hi = d.k",
            /*rf=*/false);
  run_point("join", "10% match", 100000, 100000.0 / rows,
            "SELECT count(*) AS c, sum(h.v) AS s FROM h JOIN hd_big d "
            "ON h.k_hi = d.k");
  run_point("join", "every row matches (10k dup keys)", 10000, 1.0,
            "SELECT count(*) AS c, sum(h.v) AS s FROM h JOIN hd_big d "
            "ON h.k_mid = d.k");
  return points;
}

struct FusedPoint {
  double selectivity;
  double unfused_ms;
  double fused_ms;
  double speedup;
  bool identical;
  bool bytes_equal;
};

std::vector<FusedPoint> RunFusedSweep(Catalog* catalog, int fact_rows,
                                      int reps) {
  (void)fact_rows;
  std::vector<FusedPoint> points;
  // Predicate on `v` (uniform across row groups, so zone maps cannot
  // prune): the fused path filters the encoded chunk and materializes
  // only survivors, the unfused path decodes everything then filters.
  for (double target : {0.001, 0.01, 0.1}) {
    const int64_t threshold = static_cast<int64_t>(1000 * target);
    const std::string sql =
        "SELECT tag, count(*) AS c, sum(k) AS s FROM fact WHERE v < " +
        std::to_string(threshold) + " AND tag <> 'red' GROUP BY tag";
    EngineRun fused_run, unfused_run;
    const double unfused_ms = TimeMs(
        reps, [&] { unfused_run = RunQuery(catalog, sql, false, false); });
    const double fused_ms =
        TimeMs(reps, [&] { fused_run = RunQuery(catalog, sql, true, false); });
    points.push_back({target, unfused_ms, fused_ms,
                      fused_ms > 0 ? unfused_ms / fused_ms : 0,
                      fused_run.rows == unfused_run.rows,
                      fused_run.bytes == unfused_run.bytes});
  }
  return points;
}

struct RfResult {
  uint64_t bytes_off = 0;
  uint64_t bytes_on = 0;
  uint64_t rf_skipped = 0;
  uint64_t pruned_row_groups = 0;
  bool identical = false;
  bool audit_exact = false;
  double off_ms = 0;
  double on_ms = 0;
};

RfResult RunRfComparison(Catalog* catalog, int reps) {
  const std::string sql =
      "SELECT d.name, sum(f.v) AS s, count(*) AS c FROM fact f "
      "JOIN dim d ON f.k = d.k GROUP BY d.name ORDER BY d.name";
  EngineRun off, on;
  RfResult rf;
  rf.off_ms = TimeMs(reps, [&] { off = RunQuery(catalog, sql, true, false); });
  rf.on_ms = TimeMs(reps, [&] { on = RunQuery(catalog, sql, true, true); });
  rf.bytes_off = off.bytes;
  rf.bytes_on = on.bytes;
  rf.rf_skipped = on.rf_skipped;
  rf.pruned_row_groups = on.rf_pruned_row_groups;
  rf.identical = !off.rows.empty() && off.rows == on.rows;
  rf.audit_exact = off.bytes == on.bytes + on.rf_skipped;
  return rf;
}

void WriteJson(const char* path, size_t kernel_rows,
               const std::vector<SweepPoint>& sweep, int fact_rows,
               const std::vector<FusedPoint>& fused, const RfResult& rf,
               int hash_rows, const std::vector<HashPoint>& hash) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"kernel_batch_rows\": %zu,\n", kernel_rows);
  std::fprintf(f, "  \"selectivity_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    std::fprintf(f,
                 "    {\"selectivity\": %.3f, \"scalar_ms\": %.3f, "
                 "\"kernel_ms\": %.3f, \"speedup\": %.2f, "
                 "\"identical\": %s}%s\n",
                 p.selectivity, p.scalar_ms, p.kernel_ms, p.speedup,
                 p.identical ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"fact_rows\": %d,\n", fact_rows);
  std::fprintf(f, "  \"fused_decode_sweep\": [\n");
  for (size_t i = 0; i < fused.size(); ++i) {
    const auto& p = fused[i];
    std::fprintf(f,
                 "    {\"selectivity\": %.3f, \"unfused_ms\": %.3f, "
                 "\"fused_ms\": %.3f, \"speedup\": %.2f, "
                 "\"identical\": %s, \"bytes_equal\": %s}%s\n",
                 p.selectivity, p.unfused_ms, p.fused_ms, p.speedup,
                 p.identical ? "true" : "false",
                 p.bytes_equal ? "true" : "false",
                 i + 1 < fused.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"runtime_filters\": {\n");
  std::fprintf(f, "    \"bytes_off\": %llu,\n",
               static_cast<unsigned long long>(rf.bytes_off));
  std::fprintf(f, "    \"bytes_on\": %llu,\n",
               static_cast<unsigned long long>(rf.bytes_on));
  std::fprintf(f, "    \"rf_skipped_bytes\": %llu,\n",
               static_cast<unsigned long long>(rf.rf_skipped));
  std::fprintf(f, "    \"pruned_row_groups\": %llu,\n",
               static_cast<unsigned long long>(rf.pruned_row_groups));
  std::fprintf(f, "    \"billed_byte_reduction_pct\": %.1f,\n",
               rf.bytes_off > 0
                   ? 100.0 * (rf.bytes_off - rf.bytes_on) / rf.bytes_off
                   : 0.0);
  std::fprintf(f, "    \"identical_results\": %s,\n",
               rf.identical ? "true" : "false");
  std::fprintf(f, "    \"audit_exact\": %s\n", rf.audit_exact ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"hash_rows\": %d,\n", hash_rows);
  std::fprintf(f, "  \"hash_sweep\": [\n");
  for (size_t i = 0; i < hash.size(); ++i) {
    const auto& p = hash[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"label\": \"%s\", "
                 "\"cardinality\": %lld, \"selectivity\": %.4f, "
                 "\"scalar_ms\": %.3f, \"typed_ms\": %.3f, "
                 "\"speedup\": %.2f, \"identical\": %s, "
                 "\"bytes_equal\": %s}%s\n",
                 p.op, p.label, p.cardinality, p.selectivity, p.scalar_ms,
                 p.typed_ms, p.speedup, p.identical ? "true" : "false",
                 p.bytes_equal ? "true" : "false",
                 i + 1 < hash.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Fail(const char* what) {
  std::printf("FAIL: %s\n", what);
  return 1;
}

int RunSmoke() {
  std::printf("== kernels smoke (CI gate) ==\n");
  // Kernel-vs-scalar: identical selections, kernels not slower on a
  // selective filter (in Release they are several times faster; the gate
  // only demands "no regression" to stay robust on noisy runners).
  const size_t kRows = 200000;
  auto sweep = RunKernelSweep(kRows, 5);
  if (sweep.empty()) return Fail("kernel sweep did not run");
  for (const auto& p : sweep) {
    if (!p.identical) return Fail("kernel selection differs from scalar");
  }
  const auto& selective = sweep.front();  // 1% selectivity
  std::printf("  scalar %.3f ms, kernel %.3f ms (%.1fx) at %.0f%% selectivity\n",
              selective.scalar_ms, selective.kernel_ms, selective.speedup,
              selective.selectivity * 100);
  if (selective.kernel_ms > selective.scalar_ms) {
    return Fail("kernel path slower than scalar on selective filter");
  }

  const int kFactRows = 1 << 17;
  auto catalog = BuildBenchCatalog(kFactRows, 100);
  auto fused = RunFusedSweep(catalog.get(), kFactRows, 2);
  for (const auto& p : fused) {
    if (!p.identical) return Fail("fused decode changed query results");
    if (!p.bytes_equal) return Fail("fused decode changed the bill");
  }
  std::printf("  fused==unfused results and bills across %zu selectivities\n",
              fused.size());

  auto rf = RunRfComparison(catalog.get(), 2);
  if (!rf.identical) return Fail("runtime filters changed join results");
  if (!rf.audit_exact) {
    return Fail("bytes_off != bytes_on + rf_skipped_bytes");
  }
  if (rf.bytes_on >= rf.bytes_off) {
    return Fail("runtime filters did not reduce billed bytes");
  }
  std::printf(
      "  rf bytes %llu -> %llu (-%.1f%%), %llu row groups pruned, audit "
      "exact\n",
      static_cast<unsigned long long>(rf.bytes_off),
      static_cast<unsigned long long>(rf.bytes_on),
      100.0 * (rf.bytes_off - rf.bytes_on) / rf.bytes_off,
      static_cast<unsigned long long>(rf.pruned_row_groups));
  std::printf("PASS: kernels smoke\n");
  return 0;
}

void PrintHashSweep(const std::vector<HashPoint>& hash) {
  std::printf("%5s %-34s %11s %6s %11s %11s %9s %5s %6s\n", "op", "point",
              "cardinality", "sel", "scalar_ms", "typed_ms", "speedup",
              "same", "bill=");
  for (const auto& p : hash) {
    std::printf("%5s %-34s %11lld %6.3f %11.3f %11.3f %8.1fx %5s %6s\n",
                p.op, p.label, p.cardinality, p.selectivity, p.scalar_ms,
                p.typed_ms, p.speedup, p.identical ? "yes" : "NO",
                p.bytes_equal ? "yes" : "NO");
  }
}

int RunHashSmoke() {
  std::printf("== hash smoke (CI gate) ==\n");
  const int kRows = 1 << 17;
  auto catalog = BuildHashCatalog(kRows);
  auto hash = RunHashSweep(catalog.get(), kRows, 2);
  if (hash.empty()) return Fail("hash sweep did not run");
  PrintHashSweep(hash);
  double high_card_agg = 0, selective_join = 0, raw_probe_join = 0;
  for (const auto& p : hash) {
    if (!p.identical) return Fail("typed hash path changed query results");
    if (!p.bytes_equal) return Fail("typed hash path changed the bill");
    // Gate only the points where typed must win big; the remaining points
    // just need "not slower" with headroom for noisy runners.
    if (p.cardinality == kRows && std::strcmp(p.op, "agg") == 0 &&
        p.selectivity == 1.0) {
      high_card_agg = p.speedup;
    } else if (std::strcmp(p.label, "selective, rf off (raw probe)") == 0) {
      raw_probe_join = p.speedup;
    } else if (std::strcmp(p.op, "join") == 0 && p.cardinality == 1000) {
      selective_join = p.speedup;
    } else if (p.speedup < 0.5) {
      return Fail("typed hash path >2x slower on a sweep point");
    }
  }
  std::printf("  high-card agg %.1fx, selective join %.1fx, raw probe %.1fx\n",
              high_card_agg, selective_join, raw_probe_join);
  if (high_card_agg < 2.0) {
    return Fail("typed path under 2x on high-cardinality group-by");
  }
  if (selective_join < 1.5) {
    return Fail("typed path under 1.5x on selective equi-join");
  }
  if (raw_probe_join < 3.0) {
    return Fail("typed path under 3x on the rf-off selective join probe");
  }
  std::printf("PASS: hash smoke\n");
  return 0;
}

int RunFull(const char* out_path) {
  const size_t kKernelRows = 1000000;
  std::printf("== E11: vectorized kernels & runtime filters ==\n\n");
  std::printf("-- predicate kernels (%zu-row batch, best of 5) --\n",
              kKernelRows);
  std::printf("%12s %12s %12s %9s %6s\n", "selectivity", "scalar_ms",
              "kernel_ms", "speedup", "same");
  auto sweep = RunKernelSweep(kKernelRows, 5);
  for (const auto& p : sweep) {
    std::printf("%12.3f %12.3f %12.3f %8.1fx %6s\n", p.selectivity,
                p.scalar_ms, p.kernel_ms, p.speedup,
                p.identical ? "yes" : "NO");
  }

  const int kFactRows = 1 << 19;
  auto catalog = BuildBenchCatalog(kFactRows, 200);
  std::printf("\n-- fused decode+filter (%d-row fact scan, best of 3) --\n",
              kFactRows);
  std::printf("%12s %12s %12s %9s %6s %6s\n", "selectivity", "unfused_ms",
              "fused_ms", "speedup", "same", "bill=");
  auto fused = RunFusedSweep(catalog.get(), kFactRows, 3);
  for (const auto& p : fused) {
    std::printf("%12.3f %12.3f %12.3f %8.1fx %6s %6s\n", p.selectivity,
                p.unfused_ms, p.fused_ms, p.speedup,
                p.identical ? "yes" : "NO", p.bytes_equal ? "yes" : "NO");
  }

  std::printf("\n-- runtime filters (fact join selective dim) --\n");
  auto rf = RunRfComparison(catalog.get(), 3);
  std::printf("  off: %llu bytes in %.2f ms\n",
              static_cast<unsigned long long>(rf.bytes_off), rf.off_ms);
  std::printf("  on:  %llu bytes in %.2f ms (rf_skipped=%llu, pruned "
              "row groups=%llu)\n",
              static_cast<unsigned long long>(rf.bytes_on), rf.on_ms,
              static_cast<unsigned long long>(rf.rf_skipped),
              static_cast<unsigned long long>(rf.pruned_row_groups));
  std::printf("  billed-byte reduction: %.1f%%; results identical: %s; "
              "audit exact: %s\n",
              rf.bytes_off > 0
                  ? 100.0 * (rf.bytes_off - rf.bytes_on) / rf.bytes_off
                  : 0.0,
              rf.identical ? "yes" : "NO", rf.audit_exact ? "yes" : "NO");

  const int kHashRows = 1000000;
  std::printf(
      "\n-- E14: typed hash join & aggregation (%d rows, best of 2) --\n",
      kHashRows);
  auto hash_catalog = BuildHashCatalog(kHashRows);
  auto hash = RunHashSweep(hash_catalog.get(), kHashRows, 2);
  PrintHashSweep(hash);

  WriteJson(out_path, kKernelRows, sweep, kFactRows, fused, rf, kHashRows,
            hash);

  bool ok = rf.identical && rf.audit_exact && rf.bytes_on < rf.bytes_off;
  for (const auto& p : sweep) ok = ok && p.identical;
  for (const auto& p : fused) ok = ok && p.identical && p.bytes_equal;
  for (const auto& p : hash) ok = ok && p.identical && p.bytes_equal;
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_kernels.json";
  bool smoke = false;
  bool hash_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernels-smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--hash-smoke") == 0) hash_smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  if (hash_smoke) return RunHashSmoke();
  return smoke ? RunSmoke() : RunFull(out_path);
}
