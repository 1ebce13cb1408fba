#include "turbo/cf_worker.h"

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/fault_injection.h"
#include "testing/test_db.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

class CfWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = testing::BuildTestCatalog(); }

  PlanPtr Plan(const std::string& sql, Catalog* catalog,
               const std::string& db) {
    auto plan = PlanQuery(sql, *catalog, db);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
    EXPECT_TRUE(optimized.ok());
    return optimized.ok() ? *optimized : nullptr;
  }

  TablePtr Direct(const std::string& sql, Catalog* catalog,
                  const std::string& db) {
    ExecContext ctx;
    ctx.catalog = catalog;
    auto r = ExecuteQuery(sql, db, &ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  static std::vector<std::string> Rows(const Table& t) {
    std::vector<std::string> out;
    for (const auto& b : t.batches()) {
      for (size_t r = 0; r < b->num_rows(); ++r) out.push_back(b->RowToString(r));
    }
    return out;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(CfWorkerTest, RoundTripViewThroughStorage) {
  MemoryStore store;
  auto table = std::make_shared<Table>();
  auto batch = std::make_shared<RowBatch>();
  auto col = MakeVector(TypeId::kInt64);
  col->AppendInt(10);
  col->AppendInt(20);
  batch->AddColumn("v", col);
  table->AddBatch(batch);
  auto restored = RoundTripView(*table, &store, "views/v0.pxl");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_rows(), 2u);
  EXPECT_EQ((*restored)->CollectColumn("v")[1].i, 20);
  EXPECT_TRUE(store.Exists("views/v0.pxl"));
}

TEST_F(CfWorkerTest, RoundTripEmptyView) {
  MemoryStore store;
  Table empty;
  auto restored = RoundTripView(empty, &store, "views/empty.pxl");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->num_rows(), 0u);
}

TEST_F(CfWorkerTest, PushdownMatchesDirectExecutionSimpleAgg) {
  const std::string sql =
      "SELECT dept, sum(salary) AS s, count(*) AS c FROM emp GROUP BY dept "
      "ORDER BY dept";
  auto direct = Direct(sql, catalog_.get(), "db");
  CfWorkerOptions options;
  options.num_workers = 4;
  auto exec = ExecuteWithCfPushdown(Plan(sql, catalog_.get(), "db"),
                                    catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE(exec->pushdown_used);
  EXPECT_EQ(Rows(*direct), Rows(*exec->result));
}

TEST_F(CfWorkerTest, PushdownWithIntermediateStore) {
  const std::string sql = "SELECT dept, avg(salary) FROM emp GROUP BY dept "
                          "ORDER BY dept";
  auto direct = Direct(sql, catalog_.get(), "db");
  // A pass-through decorator that counts the views' writes and deletes.
  FaultInjectingStorage counted(
      std::shared_ptr<Storage>(catalog_->storage(), [](Storage*) {}), {});
  CfWorkerOptions options;
  options.num_workers = 2;
  options.intermediate_store = &counted;
  options.view_prefix = "intermediate/test";
  auto exec = ExecuteWithCfPushdown(Plan(sql, catalog_.get(), "db"),
                                    catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(Rows(*direct), Rows(*exec->result));
  // The workers' views went through object storage (a write and a delete
  // each) and none is left behind.
  EXPECT_GE(counted.stats().write_ops, 2u);
  EXPECT_EQ(counted.stats().write_ops % 2, 0u);
  auto files = catalog_->storage()->List("intermediate/test");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty());
}

TEST_F(CfWorkerTest, NoPushableSubtreeFallsBack) {
  auto plan = Plan("SELECT 1 + 1 AS x", catalog_.get(), "db");
  CfWorkerOptions options;
  auto exec = ExecuteWithCfPushdown(plan, catalog_.get(), options);
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->pushdown_used);
  EXPECT_EQ(exec->result->num_rows(), 1u);
}

TEST_F(CfWorkerTest, MultiWorkerTpchAggregation) {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  TpchOptions topt;
  topt.scale_factor = 0.002;
  topt.rows_per_file = 2000;  // multiple lineitem files for partitioning
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", topt).ok());

  const std::string sql =
      "SELECT l_returnflag, sum(l_extendedprice) AS rev, count(*) AS n FROM "
      "lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  auto direct = Direct(sql, catalog.get(), "tpch");
  CfWorkerOptions options;
  options.num_workers = 5;
  auto exec = ExecuteWithCfPushdown(Plan(sql, catalog.get(), "tpch"),
                                    catalog.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_GT(exec->workers_used, 1);
  EXPECT_EQ(Rows(*direct), Rows(*exec->result));
  EXPECT_GT(exec->bytes_scanned, 0u);
}

TEST_F(CfWorkerTest, JoinPushdownMatchesDirect) {
  const std::string sql =
      "SELECT d.location, count(*) AS c FROM emp e JOIN dept d ON e.dept = "
      "d.name GROUP BY d.location ORDER BY d.location";
  auto direct = Direct(sql, catalog_.get(), "db");
  CfWorkerOptions options;
  options.num_workers = 2;
  auto exec = ExecuteWithCfPushdown(Plan(sql, catalog_.get(), "db"),
                                    catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(Rows(*direct), Rows(*exec->result));
}

TEST_F(CfWorkerTest, DistinctAggregatePushdownMatchesDirect) {
  const std::string sql = "SELECT count(DISTINCT dept) AS d FROM emp";
  auto direct = Direct(sql, catalog_.get(), "db");
  CfWorkerOptions options;
  options.num_workers = 3;
  auto exec = ExecuteWithCfPushdown(Plan(sql, catalog_.get(), "db"),
                                    catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(Rows(*direct), Rows(*exec->result));
}

TEST_F(CfWorkerTest, ConcurrentFleetMatchesSerialFleet) {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  TpchOptions topt;
  topt.scale_factor = 0.002;
  topt.rows_per_file = 2000;
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", topt).ok());

  const std::string sql =
      "SELECT l_returnflag, sum(l_extendedprice) AS rev, count(*) AS n FROM "
      "lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  CfWorkerOptions serial_opts;
  serial_opts.num_workers = 6;
  serial_opts.fleet_parallelism = 1;
  serial_opts.intermediate_store = storage.get();
  serial_opts.view_prefix = "intermediate/serial";
  auto serial = ExecuteWithCfPushdown(Plan(sql, catalog.get(), "tpch"),
                                      catalog.get(), serial_opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  CfWorkerOptions par_opts = serial_opts;
  par_opts.fleet_parallelism = 6;
  par_opts.view_prefix = "intermediate/parallel";
  auto parallel = ExecuteWithCfPushdown(Plan(sql, catalog.get(), "tpch"),
                                        catalog.get(), par_opts);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_GT(parallel->workers_used, 1);
  EXPECT_EQ(parallel->workers_used, serial->workers_used);
  EXPECT_EQ(Rows(*serial->result), Rows(*parallel->result));
  EXPECT_EQ(serial->bytes_scanned, parallel->bytes_scanned);
  // Both fleets report per-worker wall times, and both delete their views
  // once read back.
  ASSERT_EQ(parallel->worker_elapsed_seconds.size(),
            static_cast<size_t>(parallel->workers_used));
  for (double t : parallel->worker_elapsed_seconds) EXPECT_GE(t, 0.0);
  auto views = storage->List("intermediate/");
  ASSERT_TRUE(views.ok());
  EXPECT_TRUE(views->empty());
}

TEST_F(CfWorkerTest, WorkEstimateDerivedFromBytes) {
  const std::string sql = "SELECT count(*) FROM emp";
  CfWorkerOptions options;
  options.bytes_per_vcpu_second = 1000.0;
  auto exec = ExecuteWithCfPushdown(Plan(sql, catalog_.get(), "db"),
                                    catalog_.get(), options);
  ASSERT_TRUE(exec.ok());
  EXPECT_GT(exec->work_vcpu_seconds, 0);
  EXPECT_NEAR(exec->work_vcpu_seconds * 1000.0,
              static_cast<double>(exec->bytes_scanned), 1e-6);
}

}  // namespace
}  // namespace pixels
