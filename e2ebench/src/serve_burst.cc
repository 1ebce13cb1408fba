// serve-burst: the control plane under a bursty open-loop trace.
// PeriodicSpikeArrivals (13/s base, +50/s for one minute in every ten,
// two virtual hours, about 129k submissions, 30/40/30 Immediate/Relaxed/
// Best-effort) of cost-model queries (execute_real=false) from 200k
// client sessions. Adaptive watermarks, best-effort preemption, the audit
// event log and batched GetStatusBatch polling are on. Arrivals are
// clock events, so they cannot run late; the wall-clock metrics measure
// how fast the server drains the trace. Each round replays the whole
// trace on a fresh server.
#include <cmath>
#include <memory>

#include "common/event_log.h"
#include "server/query_server.h"
#include "workload/arrivals.h"
#include "workloads.h"

namespace e2e {

using namespace pixels;

namespace {

constexpr size_t kSessions = 200'000;
constexpr int kMinRounds = 3;
constexpr SimTime kDrain = 48 * kHours;

struct Trace {
  std::vector<SimTime> arrivals;
  std::vector<QuerySpec> specs;
  std::vector<ServiceLevel> levels;
};

Trace MakeTrace(uint64_t seed) {
  Random rng(seed);
  Trace t;
  t.arrivals = PeriodicSpikeArrivals(&rng, 13.0, 50.0, 10 * kMinutes,
                                     1 * kMinutes, 2 * kHours);
  t.specs.reserve(t.arrivals.size());
  t.levels.reserve(t.arrivals.size());
  for (size_t i = 0; i < t.arrivals.size(); ++i) {
    const double u = rng.NextDouble();
    t.levels.push_back(u < 0.3   ? ServiceLevel::kImmediate
                       : u < 0.7 ? ServiceLevel::kRelaxed
                                 : ServiceLevel::kBestEffort);
    QuerySpec q;
    q.bytes_to_scan = static_cast<uint64_t>(rng.UniformDouble(0.2e9, 2.0e9));
    q.work_vcpu_seconds = static_cast<double>(q.bytes_to_scan) / 200e6;
    t.specs.push_back(q);
  }
  return t;
}

/// Per-submission outcome (index = trace position).
struct Settled {
  int callbacks = 0;
  bool finished = false;
  double bill = 0;
  uint64_t bytes = 0;
  SimTime pending = -1;
  SimTime latency = -1;
  double wall_us = 0;  // Submit to finish callback
};

/// What one round measured.
struct Round {
  double setup_s = 0;
  double drain_s = 0;
  std::vector<double> slice_s;  // drain wall per virtual-time slice
  double submit_us_total = 0;
  double status_us = 0;
  double callback_us = 0;
  double slo_report_us = 0;
  double snapshot_us = 0;
  std::vector<double> submit_us;
  std::vector<double> wall_us;  // Submit to finish callback, by submission
  std::vector<int> level;       // service level, by submission
  std::vector<double> be_pending_s;
  std::vector<double> be_latency_s;
  uint64_t settled = 0;
  uint64_t finished = 0;
  uint64_t bytes = 0;
  double sim_cost = 0;
  uint64_t messages = 0;
  double preemptions = 0;
  double raises = 0;
  int scale_outs = 0;
};

class BurstRound {
 public:
  BurstRound(uint64_t seed, bool timed_callbacks)
      : timed_callbacks_(timed_callbacks), rng_(7) {
    const auto t0 = WallClock::now();
    CoordinatorParams cp;
    cp.vm.initial_vms = 4;
    cp.vm.slots_per_vm = 4;
    cp.vm.min_vms = 2;
    cp.vm.max_vms = 16;
    cp.event_log_capacity = EventLog::kDefaultCapacity;
    coordinator_ = std::make_unique<Coordinator>(&clock_, &rng_, cp);
    QueryServerParams sp;
    sp.session_shards = 64;
    sp.slo.best_effort_grace = 2 * kMinutes;
    sp.admission.adaptive_watermarks = true;
    sp.admission.adaptive_step = 4.0;
    sp.admission.adaptive_max_factor = 128.0;
    sp.admission.preempt_best_effort = true;
    sp.admission.burst_window = 10 * kSeconds;
    sp.admission.burst_threshold = 80;
    server_ = std::make_unique<QueryServer>(&clock_, coordinator_.get(), sp);
    coordinator_->Start();
    sessions_.reserve(kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      sessions_.push_back(server_->OpenSession());
    }
    trace_ = MakeTrace(seed);
    const size_t n = trace_.arrivals.size();
    settled_.assign(n, Settled{});
    server_ids_.assign(n, -1);
    for (size_t i = 0; i < n; ++i) {
      clock_.ScheduleAt(trace_.arrivals[i], [this, i] { Arrive(i); });
    }
    // Batched status polls every virtual minute over the latest 1024.
    for (SimTime t = kMinutes; t <= trace_.arrivals.back(); t += kMinutes) {
      clock_.ScheduleAt(t, [this] { Poll(); });
    }
    round_.setup_s = SecondsSince(t0);
  }

  /// Drains the trace and collects the round.
  Round Drain() {
    const auto t0 = WallClock::now();
    // One slice per virtual minute of traffic, then the drain tail. The
    // trace is the same every round, and so is each slice's work.
    const SimTime last = trace_.arrivals.back();
    for (SimTime t = kMinutes; t < last + kMinutes; t += kMinutes) {
      const auto s0 = WallClock::now();
      clock_.RunUntil(std::min(t, last));
      round_.slice_s.push_back(SecondsSince(s0));
    }
    const auto s0 = WallClock::now();
    clock_.RunUntil(last + kDrain);
    round_.slice_s.push_back(SecondsSince(s0));
    auto t1 = WallClock::now();
    report_ = server_->SloReport();
    round_.slo_report_us = MicrosSince(t1);
    t1 = WallClock::now();
    const std::string text = server_->MetricsSnapshot().ToPrometheusText();
    round_.snapshot_us = MicrosSince(t1);
    round_.drain_s = SecondsSince(t0);
    round_.sim_cost =
        coordinator_->TotalVmCostUsd() + coordinator_->TotalCfCostUsd();
    round_.messages = server_->dispatcher_stats().messages;
    round_.preemptions = server_->metrics().Counter("best_effort_preemptions");
    round_.raises = server_->metrics().Counter("adaptive_watermark_raises");
    round_.scale_outs = coordinator_->vm_cluster().scale_out_events();
    total_billed_ = server_->TotalBilledUsd();
    server_->Stop();
    coordinator_->Stop();
    clock_.RunAll();
    for (size_t i = 0; i < settled_.size(); ++i) {
      const Settled& s = settled_[i];
      round_.wall_us.push_back(s.wall_us);
      round_.level.push_back(static_cast<int>(trace_.levels[i]));
      round_.settled += s.callbacks > 0;
      round_.finished += s.finished;
      round_.bytes += s.bytes;
    }
    return round_;
  }

  /// Billing, settlement and SLO checks of the drained round.
  void Check(RunResult* r) const {
    double billed = 0;
    size_t mis_settled = 0, bad_bills = 0;
    for (size_t i = 0; i < settled_.size(); ++i) {
      const Settled& s = settled_[i];
      mis_settled += s.callbacks != 1;
      const double price = PaperPricePerTb(static_cast<int>(trace_.levels[i]));
      const double bill =
          s.finished ? price * static_cast<double>(s.bytes) / 1e12 : 0.0;
      if (std::fabs(bill - s.bill) > 1e-12 * std::max(bill, 1e-12)) {
        ++bad_bills;
      }
      if (s.finished && s.bytes != trace_.specs[i].bytes_to_scan) ++bad_bills;
      billed += s.bill;
    }
    if (mis_settled > 0) {
      r->Fail(std::to_string(mis_settled) +
              " submissions did not settle exactly once");
    }
    if (bad_bills > 0) {
      r->Fail(std::to_string(bad_bills) +
              " bills differ from bytes_scanned x price");
    }
    if (std::fabs(billed - total_billed_) > 1e-9 * std::max(billed, 1e-12)) {
      r->Fail("bills do not sum to TotalBilledUsd");
    }
    uint64_t settled = 0;
    for (const SloLevelReport& l : report_.levels) {
      if (l.met + l.violated + l.excluded != l.settled) {
        r->Fail("SLO report: met + violated + excluded != settled");
      }
      settled += l.settled;
    }
    if (settled != settled_.size()) r->Fail("SLO report misses submissions");
  }

  size_t size() const { return settled_.size(); }

 private:
  void Arrive(size_t i) {
    Submission s;
    s.level = trace_.levels[i];
    s.query = trace_.specs[i];
    s.session_id = sessions_[(i * 9973) % sessions_.size()];
    const auto t0 = WallClock::now();
    server_ids_[i] = server_->Submit(
        std::move(s),
        [this, i, t0](const SubmissionRecord& srec, const QueryRecord& qrec) {
          const auto c0 = WallClock::now();
          Settled& out = settled_[i];
          if (++out.callbacks == 1) {
            out.wall_us = std::chrono::duration<double, std::micro>(c0 - t0)
                              .count();
            out.finished = qrec.state == QueryState::kFinished;
            out.bill = srec.bill_usd;
            out.bytes = qrec.bytes_scanned;
            if (qrec.start_time >= 0) {
              out.pending = qrec.start_time - srec.received_time;
              out.latency = qrec.finish_time - srec.received_time;
            }
            if (trace_.levels[i] == ServiceLevel::kBestEffort &&
                out.pending >= 0) {
              round_.be_pending_s.push_back(
                  static_cast<double>(out.pending) / kSeconds);
              round_.be_latency_s.push_back(
                  static_cast<double>(out.latency) / kSeconds);
            }
          }
          if (timed_callbacks_) round_.callback_us += MicrosSince(c0);
        });
    const double us = MicrosSince(t0);
    round_.submit_us.push_back(us);
    round_.submit_us_total += us;
  }

  void Poll() {
    const auto t0 = WallClock::now();
    std::vector<int64_t> ids;
    for (size_t i = server_ids_.size(); i > 0 && ids.size() < 1024; --i) {
      if (server_ids_[i - 1] > 0) ids.push_back(server_ids_[i - 1]);
    }
    if (!ids.empty()) {
      std::vector<bool> found;
      server_->GetStatusBatch(ids, &found);
    }
    round_.status_us += MicrosSince(t0);
  }

  bool timed_callbacks_;
  SimClock clock_;
  Random rng_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryServer> server_;
  std::vector<int64_t> sessions_;
  Trace trace_;
  std::vector<Settled> settled_;
  std::vector<int64_t> server_ids_;
  Round round_;
  SloReport report_;
  double total_billed_ = 0;
};

}  // namespace

RunResult RunServeBurst(const Options& options) {
  RunResult r;
  std::vector<Round> rounds;
  const auto start = WallClock::now();
  // The traced run keeps its first round untraced, as the baseline of
  // the tracing overhead.
  while (SecondsSince(start) < options.seconds ||
         static_cast<int>(rounds.size()) < kMinRounds) {
    const bool timed = options.trace && !rounds.empty();
    BurstRound round(options.seed, timed);
    rounds.push_back(round.Drain());
    round.Check(&r);
    r.attempted += round.size();
    r.failed += round.size() - rounds.back().finished;
  }

  // Simulated results are the paper's claims: every round must agree.
  for (const Round& rd : rounds) {
    if (rd.sim_cost != rounds[0].sim_cost ||
        rd.bytes != rounds[0].bytes ||
        rd.be_pending_s != rounds[0].be_pending_s) {
      r.Fail("simulated results differ between rounds of the same trace");
    }
  }
  auto per_round = [&](auto field) {
    std::vector<double> v;
    for (const Round& rd : rounds) v.push_back(field(rd));
    return Median(v);
  };
  const Round& first = rounds[0];
  // Drain time of a round in which every slice takes its median time
  // over the rounds.
  double robust_drain_s = 0;
  for (size_t i = 0; i < first.slice_s.size(); ++i) {
    std::vector<double> slice;
    for (const Round& rd : rounds) slice.push_back(rd.slice_s[i]);
    robust_drain_s += Median(slice);
  }

  if (!options.trace) {
    // Submission i does the same work in every round, so its median over
    // the rounds is its cost without the machine's passing slow moments.
    auto per_submission = [&](std::vector<double> Round::*field) {
      std::vector<double> out((first.*field).size());
      std::vector<double> per_round;
      for (size_t i = 0; i < out.size(); ++i) {
        per_round.clear();
        for (const Round& rd : rounds) per_round.push_back((rd.*field)[i]);
        out[i] = Median(per_round);
      }
      return out;
    };
    const std::vector<double> submit_us = per_submission(&Round::submit_us);
    const std::vector<double> wall_us = per_submission(&Round::wall_us);
    std::vector<double> level_wall_ms[3];
    for (size_t i = 0; i < wall_us.size(); ++i) {
      level_wall_ms[first.level[i]].push_back(wall_us[i] / 1e3);
    }
    std::vector<double> level_medians;
    for (const auto& w : level_wall_ms) level_medians.push_back(Median(w));
    r.Set("setup_s", per_round([](const Round& rd) { return rd.setup_s; }),
          "s");
    r.Set("queries_per_s", first.finished / robust_drain_s, "1/s");
    r.Set("submissions_per_s", first.settled / robust_drain_s, "1/s");
    r.Set("query_ms_geomean", GeoMean(level_medians), "ms");
    r.Set("billed_mb_per_query",
          static_cast<double>(first.bytes) / 1e6 /
              static_cast<double>(std::max<uint64_t>(first.settled, 1)),
          "MB");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    r.Set("submit_us_p50", Median(submit_us), "us");
    r.Set("submit_us_p99.99", TailValue(submit_us, 10), "us");
    r.Set("sim_cost_usd", first.sim_cost, "USD");
    r.Set("sim_latency_s_p99", Percentile(first.be_latency_s, 99),
          "virtual_s");
    return r;
  }

  auto traced_median = [&](auto field) {
    std::vector<double> v;
    for (size_t i = 1; i < rounds.size(); ++i) v.push_back(field(rounds[i]));
    return Median(v);
  };
  r.Set("server.status_ms",
        traced_median([](const Round& rd) { return rd.status_us / 1e3; }),
        "ms");
  r.Set("server.slo_report_ms",
        traced_median([](const Round& rd) { return rd.slo_report_us / 1e3; }),
        "ms");
  r.Set("server.dispatcher_messages", static_cast<double>(first.messages),
        "count");
  r.Set("server.preemptions", first.preemptions, "count");
  r.Set("server.watermark_raises", first.raises, "count");
  r.Set("server.be_pending_s_p99", Percentile(first.be_pending_s, 99),
        "virtual_s");
  r.Set("cloud.sim_ms", traced_median([](const Round& rd) {
          return rd.drain_s * 1e3 -
                 (rd.submit_us_total + rd.status_us + rd.callback_us +
                  rd.slo_report_us + rd.snapshot_us) /
                     1e3;
        }),
        "ms");
  r.Set("cloud.metrics_snapshot_ms",
        traced_median([](const Round& rd) { return rd.snapshot_us / 1e3; }),
        "ms");
  r.Set("cloud.scale_out_events", static_cast<double>(first.scale_outs),
        "count");
  r.Set("trace.overhead_pct",
        100.0 * (traced_median([](const Round& rd) { return rd.drain_s; }) /
                     first.drain_s -
                 1),
        "%");
  FillAbsentLayers(&r);
  return r;
}

}  // namespace e2e
