// CF-fleet robustness: failed workers are re-invoked with backoff; a
// partition that exhausts its budget degrades to the VM path (or fails
// the query when fallback is off); permanent errors fail immediately.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "testing/switchable_storage.h"
#include "testing/test_db.h"
#include "turbo/cf_worker.h"
#include "turbo/coordinator.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

using pixels::testing::SwitchableStorage;

class CfRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Data lives in `mem_`; the catalog reads through `switchable_`, which
    // starts healthy (registration never trips fault budgets).
    mem_ = std::make_shared<MemoryStore>();
    switchable_ = std::make_shared<SwitchableStorage>(mem_);
    catalog_ = std::make_shared<Catalog>(switchable_);
    TpchOptions topt;
    topt.scale_factor = 0.002;
    topt.rows_per_file = 2000;  // several lineitem files -> real fleet
    ASSERT_TRUE(GenerateTpch(catalog_.get(), "tpch", topt).ok());
  }

  /// Switches all subsequent catalog reads to fault-injected storage.
  void InjectFaults(FaultInjectionParams params) {
    injector_ =
        std::make_shared<FaultInjectingStorage>(mem_, std::move(params));
    switchable_->SetTarget(injector_);
  }

  PlanPtr Plan(const std::string& sql) {
    auto plan = PlanQuery(sql, *catalog_, "tpch");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog_);
    EXPECT_TRUE(optimized.ok());
    return optimized.ok() ? *optimized : nullptr;
  }

  static std::vector<std::string> Rows(const Table& t) {
    std::vector<std::string> out;
    for (const auto& b : t.batches()) {
      for (size_t r = 0; r < b->num_rows(); ++r)
        out.push_back(b->RowToString(r));
    }
    return out;
  }

  /// Serial fleet (deterministic worker order) over the lineitem scan.
  CfWorkerOptions FleetOptions() {
    CfWorkerOptions options;
    options.num_workers = 4;
    options.fleet_parallelism = 1;
    return options;
  }

  static FaultInjectionParams FailFirstReads(int n) {
    FaultInjectionParams params;
    FaultRule rule;
    rule.fail_first_reads = n;  // empty substring: every path
    params.rules.push_back(rule);
    return params;
  }

  const std::string sql_ =
      "SELECT l_returnflag, sum(l_extendedprice) AS rev, count(*) AS n "
      "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";

  std::shared_ptr<MemoryStore> mem_;
  std::shared_ptr<SwitchableStorage> switchable_;
  std::shared_ptr<FaultInjectingStorage> injector_;
  std::shared_ptr<Catalog> catalog_;
};

TEST_F(CfRetryTest, TransientWorkerFailureIsReinvokedAndRecovers) {
  auto clean = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                     FleetOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // One injected failure: the first worker's first attempt dies, the
  // re-invocation succeeds, and the query never notices.
  InjectFaults(FailFirstReads(1));
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                    FleetOptions());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->worker_retries, 1);
  EXPECT_EQ(exec->workers_recovered, 1);
  EXPECT_EQ(exec->workers_fallback, 0);
  EXPECT_GT(exec->retry_backoff_simulated_ms, 0.0);
  // Recovery is invisible in the results and in the billing inputs.
  EXPECT_EQ(Rows(*clean->result), Rows(*exec->result));
  EXPECT_EQ(clean->bytes_scanned, exec->bytes_scanned);
  EXPECT_EQ(clean->workers_used, exec->workers_used);
}

TEST_F(CfRetryTest, ExhaustedWorkerDegradesToVmPath) {
  auto clean = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                     FleetOptions());
  ASSERT_TRUE(clean.ok());

  // Budget of 2 attempts; each failed attempt consumes one injected
  // fault, so 2 faults exhaust exactly the first worker's budget.
  InjectFaults(FailFirstReads(2));
  auto options = FleetOptions();
  options.max_worker_attempts = 2;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->workers_fallback, 1);
  EXPECT_EQ(exec->worker_retries, 1);
  EXPECT_EQ(exec->workers_recovered, 0);
  EXPECT_GT(exec->fallback_bytes_scanned, 0u);
  EXPECT_LT(exec->fallback_bytes_scanned, exec->bytes_scanned);
  // Fallback partitions leave the fleet but not the result or the bill.
  EXPECT_EQ(exec->workers_used, clean->workers_used - 1);
  EXPECT_EQ(Rows(*clean->result), Rows(*exec->result));
  EXPECT_EQ(clean->bytes_scanned, exec->bytes_scanned);
}

TEST_F(CfRetryTest, ExhaustionFailsQueryWhenFallbackDisabled) {
  InjectFaults(FailFirstReads(100));  // beyond any retry budget
  auto options = FleetOptions();
  options.max_worker_attempts = 2;
  options.vm_fallback = false;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsIOError());
  EXPECT_NE(exec.status().message().find("injected fault"),
            std::string::npos);
}

TEST_F(CfRetryTest, WorkerViewsAreDeletedAfterSuccessRetryAndFailure) {
  auto options = FleetOptions();
  options.intermediate_store = switchable_.get();
  options.view_prefix = "intermediate/q7";
  auto views_left = [&] {
    auto listed = mem_->List(options.view_prefix);
    EXPECT_TRUE(listed.ok());
    return listed.ok() ? listed->size() : 0u;
  };
  auto no_store = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                        FleetOptions());
  ASSERT_TRUE(no_store.ok()) << no_store.status().ToString();

  // Success: every worker's view is written, read back, then deleted;
  // the round trip bills nothing.
  auto clean = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->workers_used, 1);
  EXPECT_EQ(views_left(), 0u);
  EXPECT_EQ(Rows(*clean->result), Rows(*no_store->result));
  EXPECT_EQ(clean->bytes_scanned, no_store->bytes_scanned);

  // Retried: the first view read-back fails after the write; the failed
  // attempt's object goes too.
  FaultInjectionParams once;
  FaultRule rule;
  rule.path_substring = "intermediate/";
  rule.fail_first_reads = 1;
  once.rules.push_back(rule);
  InjectFaults(once);
  auto retried = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->worker_retries, 1);
  EXPECT_EQ(views_left(), 0u);
  EXPECT_EQ(Rows(*retried->result), Rows(*clean->result));
  EXPECT_EQ(retried->bytes_scanned, clean->bytes_scanned);

  // Failed: every read-back fails and there is no fallback.
  FaultInjectionParams always = once;
  always.rules[0].fail_first_reads = 1000;
  InjectFaults(always);
  options.max_worker_attempts = 2;
  options.vm_fallback = false;
  auto failed = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(views_left(), 0u);
}

TEST_F(CfRetryTest, PermanentErrorFailsWithoutRetry) {
  // Remove a data object: NotFound is permanent, so the fleet must not
  // burn its re-invocation budget before failing the query.
  auto files = mem_->List("");
  ASSERT_TRUE(files.ok());
  std::string victim;
  for (const auto& f : *files) {
    if (f.find("lineitem") != std::string::npos) {
      victim = f;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(mem_->Delete(victim).ok());
  InjectFaults({});  // counts ops; injects nothing
  auto options = FleetOptions();
  options.max_worker_attempts = 5;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsNotFound());
}

TEST_F(CfRetryTest, CoordinatorDegradesToVmPricingOnFullFallback) {
  // Probe the fleet's partition count fault-free so the injected fault
  // budget kills every partition's single attempt, no more, no less.
  auto probe = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                     FleetOptions());
  ASSERT_TRUE(probe.ok());
  const int partitions = probe->workers_used;
  ASSERT_GT(partitions, 0);

  // Every CF attempt fails; with a 1-attempt budget all partitions fall
  // back, so the query must report used_cf = false and VM pricing.
  CoordinatorParams params;
  params.vm.initial_vms = 1;
  params.vm.slots_per_vm = 1;
  params.vm.min_vms = 1;
  params.vm.max_vms = 2;
  params.vm.monitor_interval = 5 * kSeconds;
  params.default_cf_workers = 4;  // matches FleetOptions() probe
  params.cf_max_worker_attempts = 1;

  SimClock clock;
  Random rng(42);
  Coordinator coord(&clock, &rng, params, catalog_);

  // Saturate the single VM slot so the next query takes the CF path.
  QuerySpec filler;
  filler.work_vcpu_seconds = 1000.0;
  coord.Submit(filler);

  // Each injected fault unconditionally fails one read, and each failed
  // read kills one distinct single-attempt worker — so `partitions`
  // faults fail every partition exactly once and the inline VM-path
  // fallback then runs fault-free.
  InjectFaults(FailFirstReads(partitions));
  QuerySpec spec;
  spec.sql = sql_;
  spec.db = "tpch";
  spec.execute_real = true;
  spec.cf_enabled = true;
  int64_t id = coord.Submit(spec);
  clock.RunAll();

  const QueryRecord* rec = coord.GetQuery(id);
  ASSERT_EQ(rec->state, QueryState::kFinished) << rec->error;
  EXPECT_FALSE(rec->used_cf);  // degradation is visible, not papered over
  EXPECT_EQ(rec->cf_workers_used, 0);
  EXPECT_GT(rec->cf_fallback_workers, 0);
  EXPECT_GT(rec->cf_fallback_bytes, 0u);
  ASSERT_NE(rec->result, nullptr);
  EXPECT_GT(rec->result->num_rows(), 0u);
  EXPECT_GT(rec->compute_cost_usd, 0.0);
  EXPECT_EQ(coord.metrics().Counter("cf_fleet_degraded_queries"), 1.0);
}

TEST_F(CfRetryTest, CoordinatorRecordsWorkerRetries) {
  CoordinatorParams params;
  params.vm.initial_vms = 1;
  params.vm.slots_per_vm = 1;
  params.vm.min_vms = 1;
  params.vm.max_vms = 2;
  params.vm.monitor_interval = 5 * kSeconds;

  SimClock clock;
  Random rng(42);
  Coordinator coord(&clock, &rng, params, catalog_);

  QuerySpec filler;
  filler.work_vcpu_seconds = 1000.0;
  coord.Submit(filler);

  InjectFaults(FailFirstReads(1));
  QuerySpec spec;
  spec.sql = sql_;
  spec.db = "tpch";
  spec.execute_real = true;
  spec.cf_enabled = true;
  int64_t id = coord.Submit(spec);
  clock.RunAll();

  const QueryRecord* rec = coord.GetQuery(id);
  ASSERT_EQ(rec->state, QueryState::kFinished) << rec->error;
  EXPECT_TRUE(rec->used_cf);  // recovered in place, CF still did the work
  EXPECT_EQ(rec->cf_worker_retries, 1);
  EXPECT_EQ(rec->cf_fallback_workers, 0);
  EXPECT_GT(rec->bytes_scanned, 0u);
}

}  // namespace
}  // namespace pixels
