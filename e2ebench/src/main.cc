// bench_e2e: end-to-end benchmark of real TPC-H SQL and a bursty serving
// trace through QueryServer::Submit.
//
//   bench_e2e --workload tpch-vm|tpch-cf|serve-burst --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 (bench_e2e_traced
// only) prints the per-layer metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Check
// failures are listed on stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "probes.h"
#include "workloads.h"

namespace e2e {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports.
constexpr LayerMetric kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"plan.bind_us", "us"},
    {"plan.optimize_us", "us"},
    {"plan.split_us", "us"},
    {"exec.scan_ms", "ms"},
    {"exec.filter_ms", "ms"},
    {"exec.agg_ms", "ms"},
    {"exec.join_ms", "ms"},
    {"exec.project_ms", "ms"},
    {"exec.sort_ms", "ms"},
    {"exec.rows_scanned", "count"},
    {"exec.rf_pruned_row_groups", "count"},
    {"format.decode_ms", "ms"},
    {"storage.gets", "count"},
    {"storage.get_mb", "MB"},
    {"storage.get_ms", "ms"},
    {"storage.puts", "count"},
    {"storage.put_mb", "MB"},
    {"storage.put_ms", "ms"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.objects_left", "count"},
    {"turbo.cf_exec_ms", "ms"},
    {"turbo.worker_ms", "ms"},
    {"turbo.fleet_ms", "ms"},
    {"turbo.workers", "count"},
    {"turbo.shuffle_mb", "MB"},
    {"turbo.coordinator_us", "us"},
    {"server.status_ms", "ms"},
    {"server.slo_report_ms", "ms"},
    {"server.dispatcher_messages", "count"},
    {"server.preemptions", "count"},
    {"server.watermark_raises", "count"},
    {"server.be_pending_s_p99", "virtual_s"},
    {"cloud.sim_ms", "ms"},
    {"cloud.metrics_snapshot_ms", "ms"},
    {"cloud.scale_out_events", "count"},
    {"trace.unaccounted_pct", "%"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "tpch-vm|tpch-cf|serve-burst --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
      if (!o.trace && std::strcmp(value, "0") != 0) {
        Usage("--trace is 0 or 1");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

}  // namespace

void FillAbsentLayers(RunResult* r) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (r->metrics.count(m.name) == 0) r->Set(m.name, 0, m.unit);
  }
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Options options = ParseArgs(argc, argv);
  if (options.trace && !ProbesLinked()) {
    Usage("--trace 1 needs the traced build (bench_e2e_traced)");
  }
  RunResult r;
  if (options.workload == "tpch-vm") {
    r = RunTpch(options, /*cf=*/false);
  } else if (options.workload == "tpch-cf") {
    r = RunTpch(options, /*cf=*/true);
  } else if (options.workload == "serve-burst") {
    r = RunServeBurst(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "bench_e2e: nothing was attempted\n");
    return 1;
  }
  std::printf("%s\n", ResultJson(r).c_str());
  return 0;
}
