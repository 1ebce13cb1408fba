// Property-based suites:
//  * optimizer equivalence — every optimizer configuration produces the
//    same rows as the unoptimized plan, over a corpus of generated queries;
//  * format round-trip — random schemas/data survive writer -> reader
//    exactly, for every forced encoding;
//  * partial/merge aggregation — splitting any aggregate query for CF
//    workers and merging partials equals direct execution, across worker
//    counts.
#include <gtest/gtest.h>

#include <ostream>

#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/subplan.h"
#include "storage/memory_store.h"
#include "testing/test_db.h"
#include "turbo/cf_worker.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

std::vector<std::string> SortedRows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) rows.push_back(b->RowToString(r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---- optimizer equivalence over generated queries ----

class OptimizerEquivalenceTest : public ::testing::TestWithParam<int> {};

std::string GenerateQuery(Random* rng) {
  // Random single/two-table queries over the emp/dept test schema.
  // Qualified names avoid ambiguity when dept is joined in (both tables
  // have a "name" column).
  static const char* kNumeric[] = {"emp.salary", "emp.id"};
  static const char* kString[] = {"emp.name", "emp.dept"};
  static const char* kAgg[] = {"sum", "avg", "min", "max", "count"};
  std::string sql = "SELECT ";
  const bool join = rng->Bernoulli(0.3);
  const bool grouped = rng->Bernoulli(0.5);
  std::string group_col = kString[rng->Uniform(0, 1)];
  if (grouped) {
    std::string measure = kNumeric[rng->Uniform(0, 1)];
    std::string fn = kAgg[rng->Uniform(0, 4)];
    sql += group_col + ", " + fn + "(" + measure + ")";
  } else {
    sql += std::string(kString[rng->Uniform(0, 1)]) + ", " +
           kNumeric[rng->Uniform(0, 1)];
  }
  sql += " FROM emp";
  if (join) sql += " JOIN dept ON emp.dept = dept.name";
  if (rng->Bernoulli(0.7)) {
    const int pick = static_cast<int>(rng->Uniform(0, 3));
    switch (pick) {
      case 0:
        sql += " WHERE emp.salary > " + std::to_string(rng->Uniform(50, 130));
        break;
      case 1:
        sql += " WHERE emp.dept = 'eng'";
        break;
      case 2:
        sql += " WHERE emp.salary BETWEEN 70 AND 100";
        break;
      default:
        sql += " WHERE emp.id IN (1, 3, 5) OR emp.salary >= 90";
        break;
    }
  }
  if (grouped) sql += " GROUP BY " + group_col;
  if (rng->Bernoulli(0.4)) sql += " LIMIT " + std::to_string(rng->Uniform(1, 9));
  return sql;
}

TEST_P(OptimizerEquivalenceTest, OptimizedPlansMatchUnoptimized) {
  auto catalog = testing::BuildTestCatalog();
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (int q = 0; q < 20; ++q) {
    std::string sql = GenerateQuery(&rng);
    auto raw = PlanQuery(sql, *catalog, "db");
    ASSERT_TRUE(raw.ok()) << sql << ": " << raw.status().ToString();

    OptimizerOptions none;
    none.fold_constants = false;
    none.pushdown_predicates = false;
    none.prune_projections = false;
    none.optimize_join_order = false;

    ExecContext base_ctx;
    base_ctx.catalog = catalog.get();
    auto baseline = ExecutePlan(*raw, &base_ctx);
    ASSERT_TRUE(baseline.ok()) << sql;

    // Every single-rule configuration plus the full optimizer.
    std::vector<OptimizerOptions> configs;
    configs.push_back(OptimizerOptions{});
    for (int bit = 0; bit < 4; ++bit) {
      OptimizerOptions o = none;
      if (bit == 0) o.fold_constants = true;
      if (bit == 1) o.pushdown_predicates = true;
      if (bit == 2) o.prune_projections = true;
      if (bit == 3) o.optimize_join_order = true;
      configs.push_back(o);
    }
    for (const auto& config : configs) {
      auto cloned = (*raw)->Clone();
      auto optimized = Optimize(cloned, *catalog, config);
      ASSERT_TRUE(optimized.ok()) << sql;
      ExecContext ctx;
      ctx.catalog = catalog.get();
      auto result = ExecutePlan(*optimized, &ctx);
      ASSERT_TRUE(result.ok()) << sql;
      // LIMIT without ORDER BY picks arbitrary rows; compare counts there
      // and exact row sets otherwise.
      if (sql.find("LIMIT") != std::string::npos) {
        EXPECT_EQ((*result)->num_rows(), (*baseline)->num_rows()) << sql;
      } else {
        EXPECT_EQ(SortedRows(**result), SortedRows(**baseline)) << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceTest,
                         ::testing::Range(0, 5));

// ---- format round-trip with random schemas/data ----

class FormatRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTripTest, RandomSchemaSurvivesWriteRead) {
  Random rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  const TypeId kTypes[] = {TypeId::kBool,   TypeId::kInt32,  TypeId::kInt64,
                           TypeId::kDouble, TypeId::kString, TypeId::kDate,
                           TypeId::kTimestamp};
  FileSchema schema;
  const int num_cols = static_cast<int>(rng.Uniform(1, 8));
  for (int c = 0; c < num_cols; ++c) {
    schema.push_back({"c" + std::to_string(c),
                      kTypes[rng.Uniform(0, 6)]});
  }
  const int num_rows = static_cast<int>(rng.Uniform(0, 700));
  std::vector<std::vector<Value>> rows;
  for (int r = 0; r < num_rows; ++r) {
    std::vector<Value> row;
    for (const auto& col : schema) {
      if (rng.Bernoulli(0.1)) {
        row.push_back(Value::Null());
        continue;
      }
      switch (col.type) {
        case TypeId::kBool:
          row.push_back(Value::Bool(rng.Bernoulli(0.5)));
          break;
        case TypeId::kDouble:
          row.push_back(Value::Double(rng.UniformDouble(-1e9, 1e9)));
          break;
        case TypeId::kString:
          row.push_back(Value::String(rng.NextString(rng.Uniform(0, 24))));
          break;
        default:
          row.push_back(Value::Int(rng.Uniform(-1000000000LL, 1000000000LL)));
          break;
      }
    }
    rows.push_back(std::move(row));
  }

  MemoryStore store;
  WriterOptions options;
  options.row_group_size = static_cast<size_t>(rng.Uniform(16, 300));
  PixelsWriter writer(schema, options);
  for (const auto& row : rows) {
    ASSERT_TRUE(writer.AppendRow(row).ok());
  }
  ASSERT_TRUE(writer.Finish(&store, "prop.pxl").ok());

  auto reader = PixelsReader::Open(&store, "prop.pxl");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->NumRows(), rows.size());
  auto batches = (*reader)->Scan(ScanOptions{});
  ASSERT_TRUE(batches.ok());
  size_t row_index = 0;
  for (const auto& batch : *batches) {
    for (size_t r = 0; r < batch->num_rows(); ++r, ++row_index) {
      for (size_t c = 0; c < schema.size(); ++c) {
        const Value& expected = rows[row_index][c];
        Value actual = batch->column(c)->GetValue(r);
        ASSERT_EQ(expected.is_null(), actual.is_null())
            << "row " << row_index << " col " << c;
        if (!expected.is_null()) {
          ASSERT_EQ(expected.Compare(actual), 0)
              << "row " << row_index << " col " << c;
        }
      }
    }
  }
  EXPECT_EQ(row_index, rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTripTest, ::testing::Range(0, 12));

// ---- partial/merge aggregation across worker counts ----

struct PartialAggCase {
  const char* sql;
  int workers;
};

// Without this, gtest prints the case as raw bytes, which include the
// address of `sql` and so change from run to run under ASLR.
void PrintTo(const PartialAggCase& c, std::ostream* os) {
  *os << "(workers=" << c.workers << ") " << c.sql;
}

class PartialAggPropertyTest
    : public ::testing::TestWithParam<PartialAggCase> {};

TEST_P(PartialAggPropertyTest, PushdownEqualsDirect) {
  static std::shared_ptr<Catalog> catalog = [] {
    auto storage = std::make_shared<MemoryStore>();
    auto c = std::make_shared<Catalog>(storage);
    TpchOptions options;
    options.scale_factor = 0.001;
    options.rows_per_file = 1000;  // 6 lineitem files
    EXPECT_TRUE(GenerateTpch(c.get(), "tpch", options).ok());
    return c;
  }();

  const PartialAggCase& c = GetParam();
  ExecContext direct_ctx;
  direct_ctx.catalog = catalog.get();
  auto direct = ExecuteQuery(c.sql, "tpch", &direct_ctx);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto plan = PlanQuery(c.sql, *catalog, "tpch");
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
  ASSERT_TRUE(optimized.ok());
  CfWorkerOptions options;
  options.num_workers = c.workers;
  auto exec = ExecuteWithCfPushdown(*optimized, catalog.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(SortedRows(**direct), SortedRows(*exec->result)) << c.sql;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartialAggPropertyTest,
    ::testing::Values(
        PartialAggCase{"SELECT sum(l_quantity) FROM lineitem", 1},
        PartialAggCase{"SELECT sum(l_quantity) FROM lineitem", 3},
        PartialAggCase{"SELECT sum(l_quantity) FROM lineitem", 6},
        PartialAggCase{"SELECT count(*) FROM lineitem", 4},
        PartialAggCase{"SELECT min(l_shipdate), max(l_shipdate) FROM lineitem",
                       5},
        PartialAggCase{
            "SELECT l_returnflag, avg(l_discount) FROM lineitem GROUP BY "
            "l_returnflag",
            2},
        PartialAggCase{
            "SELECT l_returnflag, avg(l_discount) FROM lineitem GROUP BY "
            "l_returnflag",
            6},
        PartialAggCase{
            "SELECT l_shipmode, sum(l_extendedprice), count(*), "
            "min(l_quantity), max(l_quantity), avg(l_tax) FROM lineitem "
            "WHERE l_quantity > 10 GROUP BY l_shipmode",
            4},
        PartialAggCase{"SELECT count(DISTINCT l_shipmode) FROM lineitem", 3},
        PartialAggCase{
            "SELECT l_linestatus, count(*) FROM lineitem WHERE l_shipdate < "
            "DATE '1995-01-01' GROUP BY l_linestatus",
            5}));

}  // namespace
}  // namespace pixels
