// Shared plumbing of bench_e2e: command-line options, wall clock,
// order statistics, peak RSS, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

inline double MicrosSince(WallClock::time_point start) {
  return std::chrono::duration<double, std::micro>(WallClock::now() - start)
      .count();
}

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
double Median(std::vector<double> v);

/// The value with at least `tail` samples above it: the highest
/// percentile a sample of this size can resolve (0 when empty).
double TailValue(std::vector<double> v, size_t tail);

/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double Percentile(std::vector<double> v, double p);

double GeoMean(const std::vector<double>& v);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
  /// Human-readable check failures (printed to stderr).
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// The result as the single JSON line the benchmark ends with.
std::string ResultJson(const RunResult& r);

}  // namespace e2e
