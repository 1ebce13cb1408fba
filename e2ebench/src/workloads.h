// The benchmark's workloads. Each builds its inputs from the seed, times
// its set-up, measures for the requested seconds in whole rounds, checks
// every output, and fills the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
#pragma once

#include "common.h"

namespace e2e {

/// tpch-vm (`cf` false) and tpch-cf (`cf` true).
RunResult RunTpch(const Options& options, bool cf);

/// serve-burst.
RunResult RunServeBurst(const Options& options);

/// The paper's price list in $/TB scanned (TB = 1e12 bytes), written out
/// here so bills are recomputed independently of the engine's PriceList.
inline double PaperPricePerTb(int level) {
  return level == 0 ? 5.0 : level == 1 ? 1.0 : 0.5;
}

/// Every per-layer metric, so each traced run reports the same set (a
/// layer a workload does not exercise reads 0).
void FillAbsentLayers(RunResult* r);

}  // namespace e2e
