// A9 — morsel-driven parallel execution: dop scaling on the vCPU pool.
//
// Two workloads over the same generated tables, run at dop 1, 2, 4 and
// 8 on an 8-worker pool: a filtered scan + grouped aggregation, and the
// headline join (orders ⋈ people, grouped aggregation on top). Every dop
// runs the same batch pipeline, so each speedup is against the engine's
// own single-worker run.
//
// Timing: one discarded warm-up run per plan and dop (it pays the lazy
// Relation::Columnar() build and sizes the worker arenas), then kRounds
// interleaved rounds, each running every dop once in an order that
// alternates between rounds. A dop's time is its median over the rounds;
// a speedup is the median of the per-round ratios dop-1 / dop-N, printed
// with its median absolute deviation (MAD), so one noisy stretch of a
// shared host moves one round, not the verdict. Each dop also reports
// the CPUs the host gave it (process CPU time over wall time): a host
// that grants fewer CPUs than the dop for a whole run shows there.
//
// Correctness: after timing, the metrics registry is zeroed and each plan
// runs once through the serial row operators (BuildSerial + Execute) and
// once at every dop; each result set is order-normalized and compared
// with the serial one — a wrong answer at any dop fails the bench. That
// checked pass alone feeds the counters the committed baseline gates
// (query.pexec.work_cycles and friends). The serial run's time is
// reported too (informational, like every wall-clock figure here).
//
// Acceptance bar (ISSUE 5): median dop-4 join speedup >= 2.5x, asserted
// only when the host actually has >= 4 hardware threads (the 1-vCPU dev
// container reports its scaling numbers without gating).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "query/parallel.h"

namespace {

using namespace dbm;
using data::Relation;
using data::Schema;
using data::ValueType;

constexpr size_t kOrders = 400000;
constexpr size_t kPeople = 2000;
constexpr uint64_t kSeed = 42;

Relation MakeOrders() {
  Relation rel("orders", Schema({{"person_id", ValueType::kInt},
                                 {"qty", ValueType::kInt},
                                 {"val", ValueType::kDouble}}));
  Rng rng(kSeed);
  for (size_t i = 0; i < kOrders; ++i) {
    rel.InsertUnchecked(query::Tuple(
        {static_cast<int64_t>(rng.Uniform(kPeople)),
         static_cast<int64_t>(rng.Uniform(50)),
         0.25 * static_cast<double>(rng.Uniform(1000))}));
  }
  return rel;
}

Relation MakePeople() {
  Relation rel("people", Schema({{"id", ValueType::kInt},
                                 {"grp", ValueType::kInt},
                                 {"name", ValueType::kString}}));
  Rng rng(kSeed + 1);
  for (size_t i = 0; i < kPeople; ++i) {
    rel.InsertUnchecked(query::Tuple({static_cast<int64_t>(i),
                                      static_cast<int64_t>(rng.Uniform(32)),
                                      "p#" + std::to_string(i)}));
  }
  return rel;
}

std::multiset<std::string> Canon(const std::vector<query::Tuple>& rows) {
  std::multiset<std::string> out;
  for (const query::Tuple& t : rows) out.insert(t.ToString());
  return out;
}

constexpr int kRounds = 7;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Median absolute deviation from the median.
double Mad(const std::vector<double>& v) {
  const double m = Median(v);
  std::vector<double> dev;
  for (double x : v) dev.push_back(std::abs(x - m));
  return Median(dev);
}

struct DopPoint {
  size_t dop = 0;
  double millis = 0;       // median over the rounds
  double speedup = 1.0;    // median per-round dop-1 / dop-N ratio
  double speedup_mad = 0;
  /// Process CPU time over wall time across the rounds: the CPUs the host
  /// actually gave this dop (a starved host reads ~1 at every dop).
  double cpus = 0;
  query::ParallelStats stats;  // from the checked run
};

double ProcessCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Runs `plan` once at `dop`; returns its wall time in ms (negative on
/// error, which is printed).
double TimeOnce(const query::ParallelPlan& plan, query::WorkerPool* pool,
                size_t dop, std::vector<query::Tuple>* out,
                query::ParallelStats* stats) {
  query::ParallelOptions opt;
  opt.dop = dop;
  opt.pool = pool;
  auto t0 = std::chrono::steady_clock::now();
  auto result = query::ExecuteParallel(plan, out, opt);
  auto t1 = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::printf("  dop=%zu failed: %s\n", dop,
                result.status().ToString().c_str());
    return -1;
  }
  if (stats != nullptr) *stats = *result;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// The timing curve: a discarded warm-up run per dop, then kRounds
/// interleaved rounds. Empty on any error.
std::vector<DopPoint> TimeCurve(const query::ParallelPlan& plan,
                                query::WorkerPool* pool,
                                const std::vector<size_t>& dops) {
  for (size_t dop : dops) {
    if (TimeOnce(plan, pool, dop, nullptr, nullptr) < 0) return {};
  }
  std::vector<std::vector<double>> ms(dops.size());
  std::vector<double> cpu_ms(dops.size(), 0);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t k = 0; k < dops.size(); ++k) {
      const size_t i = round % 2 == 0 ? k : dops.size() - 1 - k;
      const double cpu0 = ProcessCpuMs();
      const double t = TimeOnce(plan, pool, dops[i], nullptr, nullptr);
      if (t < 0) return {};
      cpu_ms[i] += ProcessCpuMs() - cpu0;
      ms[i].push_back(t);
    }
  }
  std::vector<DopPoint> curve(dops.size());
  for (size_t i = 0; i < dops.size(); ++i) {
    std::vector<double> ratio;
    for (int round = 0; round < kRounds; ++round) {
      ratio.push_back(ms[0][round] / std::max(ms[i][round], 1e-9));
    }
    curve[i].dop = dops[i];
    curve[i].millis = Median(ms[i]);
    curve[i].speedup = Median(ratio);
    curve[i].speedup_mad = Mad(ratio);
    double wall_ms = 0;
    for (double t : ms[i]) wall_ms += t;
    curve[i].cpus = cpu_ms[i] / std::max(wall_ms, 1e-9);
  }
  return curve;
}

/// Runs `plan` through the serial row operators (timed into *serial_ms),
/// then once at each dop of `curve`, checking every result set against
/// the serial one and keeping each run's stats. False on any error or
/// mismatch.
bool CheckCurve(const query::ParallelPlan& plan, query::WorkerPool* pool,
                std::vector<DopPoint>* curve, double* serial_ms) {
  std::multiset<std::string> reference;
  {
    auto root = query::BuildSerial(plan);
    if (!root.ok()) {
      std::printf("  serial plan failed: %s\n",
                  root.status().ToString().c_str());
      return false;
    }
    std::vector<query::Tuple> out;
    auto t0 = std::chrono::steady_clock::now();
    auto stats = query::Execute(root->get(), &out, query::ExecOptions());
    auto t1 = std::chrono::steady_clock::now();
    if (!stats.ok()) {
      std::printf("  serial run failed: %s\n",
                  stats.status().ToString().c_str());
      return false;
    }
    *serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    reference = Canon(out);
  }
  for (DopPoint& p : *curve) {
    std::vector<query::Tuple> out;
    if (TimeOnce(plan, pool, p.dop, &out, &p.stats) < 0) return false;
    if (Canon(out) != reference) {
      std::printf("  dop=%zu result set diverges from serial!\n", p.dop);
      return false;
    }
  }
  return true;
}

void PrintCurve(const char* title, const std::vector<DopPoint>& curve,
                double serial_ms) {
  std::printf("\n%s — serial row operators %.1f ms\n", title, serial_ms);
  std::printf("  medians of %d interleaved rounds after a warm-up run\n",
              kRounds);
  bench::Table table({8, 12, 10, 10, 8, 12, 10});
  table.Row({"dop", "time ms", "speedup", "MAD", "CPUs", "morsels",
             "util %"});
  table.Rule();
  for (const DopPoint& p : curve) {
    table.Row({bench::FmtU(p.dop), bench::Fmt("%.1f", p.millis),
               bench::Fmt("%.2fx", p.speedup),
               bench::Fmt("%.2f", p.speedup_mad),
               bench::Fmt("%.1f", p.cpus), bench::FmtU(p.stats.morsels),
               bench::Fmt("%.0f", p.stats.worker_util)});
  }
  table.Rule();
}

}  // namespace

int main(int argc, char** argv) {
  dbm::bench::Init(&argc, argv);
  bench::Header("A9", "morsel-driven parallel execution: dop scaling");

  // Timing must not absorb injected faults (the chaos job arms
  // query.morsel process-wide).
  (void)fault::Injector::Default().Configure("", 0);

  Relation orders = MakeOrders();
  Relation people = MakePeople();
  const std::vector<size_t> dops = {1, 2, 4, 8};

  // Workload 1: filtered scan + grouped aggregation.
  query::ParallelPlan scan_plan;
  scan_plan.probe.mem = &orders;
  scan_plan.probe.filter = query::Gt(query::Col(1), query::Lit(int64_t{4}));
  scan_plan.group_by = {0};
  scan_plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                    {query::AggFunc::kSum, 2, "sum_val"}};

  // Workload 2 (the headline): join + grouped aggregation.
  query::ParallelPlan join_plan;
  join_plan.probe.mem = &orders;
  query::ParallelJoinStage stage;
  stage.build.mem = &people;
  stage.spec = query::JoinSpec{0, 0};  // people.id = orders.person_id
  join_plan.joins.push_back(std::move(stage));
  // Joined schema: people(id, grp, name) ++ orders(person_id, qty, val).
  join_plan.group_by = {1};
  join_plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                    {query::AggFunc::kSum, 5, "sum_val"},
                    {query::AggFunc::kMax, 4, "max_qty"}};

  std::vector<DopPoint> scan_curve, join_curve;
  {
    query::WorkerPool pool(8);
    scan_curve = TimeCurve(scan_plan, &pool, dops);
    join_curve = TimeCurve(join_plan, &pool, dops);
    if (scan_curve.empty() || join_curve.empty()) return 1;
  }

  // The checked pass starts a fresh registry epoch (and a fresh pool), so
  // the sidecar's counters are the checked runs' alone.
  obs::Registry::Default().ZeroAll();
  query::WorkerPool pool(8);
  double scan_serial_ms = 0, join_serial_ms = 0;
  if (!CheckCurve(scan_plan, &pool, &scan_curve, &scan_serial_ms)) return 1;
  PrintCurve("scan + aggregate (400k rows)", scan_curve, scan_serial_ms);
  if (!CheckCurve(join_plan, &pool, &join_curve, &join_serial_ms)) return 1;
  PrintCurve("join + aggregate (400k ⋈ 2k)", join_curve, join_serial_ms);

  double speedup4 = 1.0, mad4 = 0, cpus4 = 0;
  for (const DopPoint& p : join_curve) {
    if (p.dop == 4) {
      speedup4 = p.speedup;
      mad4 = p.speedup_mad;
      cpus4 = p.cpus;
    }
  }

  obs::Registry& reg = obs::Registry::Default();
  reg.GetGauge("bench.pexec.scan_serial_ms").Set(scan_serial_ms);
  reg.GetGauge("bench.pexec.join_serial_ms").Set(join_serial_ms);
  for (const DopPoint& p : scan_curve) {
    reg.GetGauge("bench.pexec.scan_ms_dop" + std::to_string(p.dop))
        .Set(p.millis);
  }
  for (const DopPoint& p : join_curve) {
    reg.GetGauge("bench.pexec.join_ms_dop" + std::to_string(p.dop))
        .Set(p.millis);
    reg.GetGauge("bench.pexec.join_speedup_dop" + std::to_string(p.dop))
        .Set(p.speedup);
  }
  reg.GetGauge("bench.pexec.join_speedup_dop4_mad").Set(mad4);

  unsigned hw = std::thread::hardware_concurrency();
  reg.GetGauge("bench.pexec.hw_threads").Set(static_cast<double>(hw));
  bool gate = hw >= 4;
  if (gate) {
    bench::Note(bench::Fmt("dop=4 join speedup %.2fx", speedup4) +
                bench::Fmt(" median (MAD %.2f)", mad4) +
                " (bar: >= 2.5x on this >=4-thread host)");
  } else {
    bench::Note(bench::Fmt("host has %.0f hardware threads", hw) +
                "; dop=4 bar (>= 2.5x) reported, not enforced");
  }

  bench::MetricsSidecar("bench_parallel_exec");

  if (gate && speedup4 < 2.5) {
    std::printf(
        "FAIL: median dop=4 join speedup %.2fx < 2.5x (the dop-4 rounds "
        "ran on %.1f CPUs on average)\n",
        speedup4, cpus4);
    return 1;
  }
  return 0;
}
