// olap: one closed-loop client runs a fixed rotation of three analytic
// queries over paged relations held in the buffer pool, each at dop 1
// (the serial row executor) and at dop 2 (the batch engine). The pool
// holds every page, so after set-up no page is read from disk: the query
// engine and the buffer manager's hit path do the work.

#include <map>

#include "cc/checks.h"
#include "cc/workloads.h"
#include "data/relation.h"
#include "query/parallel.h"
#include "query/pool.h"
#include "storage/buffer.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace perfbench {

namespace {

using namespace dbm;
using data::Relation;
using data::Schema;
using data::Tuple;
using data::ValueType;

constexpr size_t kReadings = 100000;
constexpr size_t kSensors = 2000;
constexpr size_t kRegions = 64;
constexpr size_t kZones = 8;
// 4096 frames (16 MiB) hold all ~1.1k pages of the three relations.
constexpr size_t kFrames = 4096;
constexpr size_t kShards = 4;
// Complete set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 5;
constexpr size_t kQueries = 3;
constexpr size_t kDops[] = {1, 2};
constexpr size_t kOpsPerRound = kQueries * 2;
const char* const kQueryNames[kQueries] = {"scan_agg", "join_agg",
                                           "join2_filter"};

/// The generator's arrays. Temperatures are multiples of 0.25, so every
/// sum the queries compute is exact in binary floating point.
struct OlapData {
  std::vector<int64_t> sensor, hour, level;
  std::vector<double> temp;
  std::vector<int64_t> region_of, model_of;  // indexed by sensor id
  std::vector<int64_t> zone_of;              // indexed by region id
  Relation readings, sensors, regions;
};

OlapData Generate(uint64_t seed) {
  SplitMix rng(seed ^ 0x0a1a9ull);
  OlapData d;
  d.sensors = Relation("sensors", Schema({{"id", ValueType::kInt},
                                          {"region", ValueType::kInt},
                                          {"model", ValueType::kInt}}));
  for (size_t s = 0; s < kSensors; ++s) {
    d.region_of.push_back(static_cast<int64_t>(rng.Below(kRegions)));
    d.model_of.push_back(static_cast<int64_t>(rng.Below(6)));
    d.sensors.InsertUnchecked(Tuple(
        {static_cast<int64_t>(s), d.region_of.back(), d.model_of.back()}));
  }
  d.regions = Relation("regions", Schema({{"id", ValueType::kInt},
                                          {"zone", ValueType::kInt},
                                          {"name", ValueType::kString}}));
  for (size_t r = 0; r < kRegions; ++r) {
    d.zone_of.push_back(static_cast<int64_t>(rng.Below(kZones)));
    d.regions.InsertUnchecked(Tuple({static_cast<int64_t>(r),
                                     d.zone_of.back(),
                                     "region-" + std::to_string(r)}));
  }
  d.readings = Relation("readings", Schema({{"sensor", ValueType::kInt},
                                            {"hour", ValueType::kInt},
                                            {"temp", ValueType::kDouble},
                                            {"level", ValueType::kInt}}));
  for (size_t i = 0; i < kReadings; ++i) {
    d.sensor.push_back(static_cast<int64_t>(rng.Below(kSensors)));
    d.hour.push_back(static_cast<int64_t>(rng.Below(24)));
    d.temp.push_back(0.25 * static_cast<double>(rng.Below(240)) - 10.0);
    d.level.push_back(static_cast<int64_t>(rng.Below(10)));
    d.readings.InsertUnchecked(
        Tuple({d.sensor[i], d.hour[i], d.temp[i], d.level[i]}));
  }
  return d;
}

/// count, sum and one extreme per group, folded in plain C++.
struct Group {
  double count = 0, sum = 0, extreme = 0;
  bool seen = false;
};

std::vector<NumRow> ToRows(const std::map<int64_t, Group>& groups) {
  std::vector<NumRow> rows;
  for (const auto& [key, g] : groups) {
    rows.push_back({static_cast<double>(key), g.count, g.sum, g.extreme});
  }
  return rows;
}

/// Expected answers of the three queries, computed over the generator's
/// arrays without touching the machine.
std::vector<std::vector<NumRow>> ExpectedAnswers(const OlapData& d) {
  std::map<int64_t, Group> q1, q2, q3;
  auto fold = [](Group& g, double temp, double v, bool want_max) {
    g.count += 1;
    g.sum += temp;
    if (!g.seen || (want_max ? v > g.extreme : v < g.extreme)) g.extreme = v;
    g.seen = true;
  };
  for (size_t i = 0; i < d.sensor.size(); ++i) {
    const double level = static_cast<double>(d.level[i]);
    // Q1: WHERE level > 3 GROUP BY hour: count, sum(temp), max(level).
    if (d.level[i] > 3) fold(q1[d.hour[i]], d.temp[i], level, true);
    // Q2: readings ⋈ sensors GROUP BY region: count, sum(temp), min(hour).
    const int64_t region = d.region_of[static_cast<size_t>(d.sensor[i])];
    fold(q2[region], d.temp[i], static_cast<double>(d.hour[i]), false);
    // Q3: ⋈ sensors ⋈ regions WHERE zone != 0 AND temp > 15
    //     GROUP BY zone: count, sum(temp), max(level).
    const int64_t zone = d.zone_of[static_cast<size_t>(region)];
    if (zone != 0 && d.temp[i] > 15.0) fold(q3[zone], d.temp[i], level, true);
  }
  return {ToRows(q1), ToRows(q2), ToRows(q3)};
}

/// The machine side: paged relations in one buffer pool, and the plans.
struct OlapWorld {
  std::shared_ptr<TracedDisk> disk;
  std::shared_ptr<storage::BufferManager> buffer;
  std::unique_ptr<storage::PagedRelation> readings, sensors, regions;
  std::vector<query::ParallelPlan> plans;
  uint64_t rows_scanned[kQueries] = {};
};

Result<std::unique_ptr<OlapWorld>> BuildWorld(const OlapData& d) {
  auto w = std::make_unique<OlapWorld>();
  w->disk = std::make_shared<TracedDisk>(
      std::make_shared<storage::DiskComponent>(), storage::kPageSize);
  w->buffer =
      std::make_shared<storage::BufferManager>("olap-buf", kFrames, kShards);
  w->buffer->FindPort("disk")->SetTarget(w->disk);
  w->buffer->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
  DBM_ASSIGN_OR_RETURN(
      w->readings,
      storage::PagedRelation::Load(d.readings, w->buffer.get(), w->disk.get()));
  DBM_ASSIGN_OR_RETURN(
      w->sensors,
      storage::PagedRelation::Load(d.sensors, w->buffer.get(), w->disk.get()));
  DBM_ASSIGN_OR_RETURN(
      w->regions,
      storage::PagedRelation::Load(d.regions, w->buffer.get(), w->disk.get()));
  DBM_RETURN_NOT_OK(w->buffer->FlushAll());
  const size_t pages =
      w->readings->pages() + w->sensors->pages() + w->regions->pages();
  if (pages > kFrames) {
    return Status::Internal("olap relations need " + std::to_string(pages) +
                            " pages, more than the pool's frames");
  }

  using namespace query;
  ParallelPlan q1;
  q1.probe.paged = w->readings.get();
  q1.probe.filter = Gt(Col(3), Lit(int64_t{3}));
  q1.group_by = {1};
  q1.aggs = {{AggFunc::kCount, 0, "n"},
             {AggFunc::kSum, 2, "sum_temp"},
             {AggFunc::kMax, 3, "max_level"}};

  // Joined schema: sensors(id, region, model) ++ readings(sensor, hour,
  // temp, level).
  ParallelPlan q2;
  q2.probe.paged = w->readings.get();
  ParallelJoinStage by_sensor;
  by_sensor.build.paged = w->sensors.get();
  by_sensor.spec = JoinSpec{0, 0};
  q2.joins.push_back(by_sensor);
  q2.group_by = {1};
  q2.aggs = {{AggFunc::kCount, 0, "n"},
             {AggFunc::kSum, 5, "sum_temp"},
             {AggFunc::kMin, 4, "min_hour"}};

  // Joined schema: regions(id, zone, name) ++ sensors(id, region, model)
  // ++ readings(sensor, hour, temp, level).
  ParallelPlan q3;
  q3.probe.paged = w->readings.get();
  q3.joins.push_back(by_sensor);
  ParallelJoinStage by_region;
  by_region.build.paged = w->regions.get();
  by_region.spec = JoinSpec{0, 1};
  q3.joins.push_back(by_region);
  q3.post_filter = And(Ne(Col(1), Lit(int64_t{0})), Gt(Col(8), Lit(15.0)));
  q3.group_by = {1};
  q3.aggs = {{AggFunc::kCount, 0, "n"},
             {AggFunc::kSum, 8, "sum_temp"},
             {AggFunc::kMax, 9, "max_level"}};

  w->plans = {q1, q2, q3};
  w->rows_scanned[0] = d.readings.size();
  w->rows_scanned[1] = d.readings.size() + d.sensors.size();
  w->rows_scanned[2] = d.readings.size() + d.sensors.size() + d.regions.size();
  return w;
}

struct QueryOutcome {
  uint64_t ns = 0;
  query::ParallelStats stats;
  std::string error;  // empty when the answer is right
};

QueryOutcome RunQuery(const OlapWorld& w, size_t q, size_t dop,
                      query::WorkerPool* pool,
                      const std::vector<NumRow>& expected, uint64_t id) {
  Span op(kLayerBench, "olap.query", id);
  query::ParallelOptions opt;
  opt.dop = dop;
  opt.dop_max = dop;
  opt.pool = pool;
  std::vector<Tuple> out;
  QueryOutcome result;
  const uint64_t t0 = NowNs();
  Result<query::ParallelStats> stats = [&] {
    Span span(kLayerQuery, "ExecuteParallel", id);
    return query::ExecuteParallel(w.plans[q], &out, opt);
  }();
  result.ns = NowNs() - t0;
  if (!stats.ok()) {
    result.error = std::string(kQueryNames[q]) + " failed: " +
                   stats.status().ToString();
    return result;
  }
  result.stats = *stats;
  std::string diff = CompareRows(expected, out);
  if (!diff.empty()) {
    result.error = std::string(kQueryNames[q]) + " at dop " +
                   std::to_string(dop) + ": " + diff;
  }
  return result;
}

}  // namespace

RunResult RunOlap(const Args& args, query::WorkerPool* pool) {
  RunResult result;
  const OlapData data = Generate(args.seed);
  const std::vector<std::vector<NumRow>> expected = ExpectedAnswers(data);

  // Set-up: bulk load, flush, and a warm-up pass of every query at every
  // dop (first query, arena sizing, lazy builds). Timed kSetupReps times;
  // the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<OlapWorld> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<OlapWorld>> built = BuildWorld(data);
    if (!built.ok()) {
      result.Fail("olap set-up: " + built.status().ToString());
      return result;
    }
    world = std::move(*built);
    for (size_t q = 0; q < kQueries; ++q) {
      for (size_t dop : kDops) {
        QueryOutcome warm = RunQuery(*world, q, dop, pool, expected[q], 0);
        if (!warm.error.empty()) {
          result.Fail("olap warm-up: " + warm.error);
          return result;
        }
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  ThreadWatch threads;
  threads.Sample();
  const storage::BufferStats buf0 = world->buffer->stats();
  const uint64_t disk_reads0 = world->disk->page_reads();
  std::vector<double> op_ms[kQueries][2];
  // Per round, per query; cpu_ms over untraced rounds.
  std::vector<double> exec_ms, traced_round_ms, untraced_round_ms, cpu_ms;
  double util_sum = 0, allocs_sum = 0, parallel_runs = 0;
  uint64_t rows_scanned = 0, queries = 0, traced_queries = 0, id = 0;

  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  for (uint64_t round = 0;; ++round) {
    // A traced run alternates traced and untraced rounds, so the tracing
    // overhead is measured in the same process on the same data.
    const bool traced = args.trace && round % 2 == 0;
    Tracer::Get().set_enabled(traced);
    const double cpu0 = CpuMs();
    const uint64_t r0 = NowNs();
    for (size_t q = 0; q < kQueries; ++q) {
      for (size_t di = 0; di < 2; ++di) {
        const size_t dop = kDops[di];
        QueryOutcome run =
            RunQuery(*world, q, dop, pool, expected[q], ++id);
        ++result.attempted;
        ++queries;
        if (traced) ++traced_queries;
        if (!run.error.empty()) {
          ++result.failed;
          if (result.errors.size() < 5) result.errors.push_back(run.error);
          continue;
        }
        const double ms = static_cast<double>(run.ns) / 1e6;
        op_ms[q][di].push_back(ms);
        exec_ms.push_back(ms);
        rows_scanned += world->rows_scanned[q];
        if (dop > 1) {
          util_sum += run.stats.worker_util;
          allocs_sum += static_cast<double>(run.stats.steady_allocs);
          parallel_runs += 1;
        }
      }
    }
    const double ms =
        static_cast<double>(NowNs() - r0) / 1e6 / kOpsPerRound;
    (traced ? traced_round_ms : untraced_round_ms).push_back(ms);
    if (!traced) cpu_ms.push_back((CpuMs() - cpu0) / kOpsPerRound);
    threads.Sample();
    if (NowNs() >= deadline) break;
  }
  Tracer::Get().set_enabled(false);
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const storage::BufferStats buf1 = world->buffer->stats();

  CheckThreadBudget(threads, &result);
  if (world->disk->page_reads() != disk_reads0) {
    result.Fail("olap read pages from disk in the timed phase; the pool "
                "should hold every page");
  }

  const double ops = static_cast<double>(queries);
  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  // Throughput, CPU per query and latency as medians over rounds (a
  // rotation of the six queries), so a burst of host interference moves
  // them less than run-long means would.
  e2e.push_back({"ops_per_s", 1e3 / Median(untraced_round_ms), "1/s"});
  e2e.push_back({"cpu_ms_per_op", Median(cpu_ms), "ms"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  double kind_ms = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t di = 0; di < 2; ++di) kind_ms += Median(op_ms[q][di]);
  }
  e2e.push_back({"latency_ms", kind_ms / kOpsPerRound, "ms"});

  std::vector<double> serial, parallel;
  for (size_t q = 0; q < kQueries; ++q) {
    serial.insert(serial.end(), op_ms[q][0].begin(), op_ms[q][0].end());
    parallel.insert(parallel.end(), op_ms[q][1].begin(), op_ms[q][1].end());
    for (size_t di = 0; di < 2; ++di) {
      result.detail.push_back({std::string(kQueryNames[q]) + ".dop" +
                                   std::to_string(kDops[di]) + ".ms_p50",
                               Median(op_ms[q][di]), "ms"});
    }
  }
  result.detail.push_back({"serial_ms_p50", Median(serial), "ms"});
  result.detail.push_back({"parallel_ms_p50", Median(parallel), "ms"});
  result.detail.push_back({"ops_per_s_mean", ops / wall_s, "1/s"});
  result.detail.push_back(
      {"rounds", static_cast<double>(traced_round_ms.size() +
                                     untraced_round_ms.size()),
       "count"});

  auto& pl = result.per_layer;
  const double gets = static_cast<double>(buf1.gets - buf0.gets);
  const double rows = static_cast<double>(rows_scanned);
  SetMetric(&pl, "query.exec_ms_p50", Median(exec_ms), "ms");
  double exec_total = 0;
  for (double ms : exec_ms) exec_total += ms;
  SetMetric(&pl, "query.rows_per_ms", exec_total > 0 ? rows / exec_total : 0,
            "rows/ms");
  SetMetric(&pl, "query.worker_util",
            parallel_runs > 0 ? util_sum / parallel_runs : 0, "%");
  SetMetric(&pl, "query.steady_allocs",
            parallel_runs > 0 ? allocs_sum / parallel_runs : 0, "count");
  SetMetric(&pl, "storage.buffer.gets_per_row", rows > 0 ? gets / rows : 0,
            "gets/row");
  SetMetric(&pl, "storage.buffer.hit_rate",
            gets > 0 ? static_cast<double>(buf1.hits - buf0.hits) / gets : 0,
            "ratio");
  SetMetric(&pl, "storage.buffer.evictions_per_krow",
            rows > 0 ? static_cast<double>(buf1.evictions - buf0.evictions) /
                           rows * 1e3
                     : 0,
            "count/krow");
  if (args.trace) {
    AddTraceMetrics(&result, traced_queries, Median(traced_round_ms) * 1e6,
                    Median(untraced_round_ms) * 1e6);
  }
  return result;
}

}  // namespace perfbench
