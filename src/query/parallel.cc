#include "query/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "fault/injector.h"
#include "fault/log.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "obs/waitstate.h"
#include "query/batch.h"
#include "query/join.h"
#include "query/paged_source.h"

namespace dbm::query {

namespace {

struct ParObs {
  obs::Gauge& dop;
  obs::Gauge& morsels;
  obs::Gauge& util;
  obs::Counter& queries;
  obs::Counter& morsels_total;
  obs::Counter& work_cycles;
  obs::Counter& batch_batches;
  obs::Counter& batch_rows;
  obs::Gauge& batch_selectivity;

  static ParObs& Get() {
    static ParObs* m = [] {
      obs::Registry& reg = obs::Registry::Default();
      return new ParObs{reg.GetGauge("exec.dop"),
                        reg.GetGauge("exec.morsels"),
                        reg.GetGauge("exec.worker-util"),
                        reg.GetCounter("query.pexec.queries"),
                        reg.GetCounter("query.pexec.morsels"),
                        reg.GetCounter("query.pexec.work_cycles"),
                        reg.GetCounter("query.batch.batches"),
                        reg.GetCounter("query.batch.rows"),
                        reg.GetGauge("query.batch.selectivity")};
    }();
    return *m;
  }
};

/// The per-morsel fault gate. Point::Decide advances the point's Rng and
/// is not thread-safe, so armed draws serialize on a mutex — the unarmed
/// fast path stays a single relaxed load.
struct MorselFaultGate {
  fault::Point* point;
  std::mutex mu;

  MorselFaultGate()
      : point(fault::Injector::Default().GetPoint("query.morsel")) {}

  Status Check() {
    if (!point->armed()) return Status::OK();
    fault::Decision d;
    {
      std::lock_guard<std::mutex> lock(mu);
      d = point->Decide();
    }
    if (d.error || d.crash || d.hang) {
      const char* what = d.crash ? "crash" : (d.hang ? "hang" : "error");
      fault::Record(fault::FaultEventKind::kInjected, "query.morsel", what,
                    0);
      return Status::Unavailable(
          std::string("injected ") + what +
          " at query.morsel: worker abandons the query");
    }
    return Status::OK();
  }
};

size_t ScanUnits(const ParallelScan& scan, const ParallelOptions& options,
                 size_t* units_per_morsel) {
  if (scan.paged != nullptr) {
    *units_per_morsel = options.morsel_pages;
    return scan.paged->pages();
  }
  *units_per_morsel = options.morsel_rows;
  return scan.mem->rows().size();
}

/// Loads one scan morsel as a column batch: a paged morsel decodes from
/// the buffer pool, a mem morsel borrows `cv`'s columns. Adds the rows
/// read to *raw.
Status LoadScanBatch(const ParallelScan& scan, const data::ColumnarView* cv,
                     const Morsel& morsel, Arena* scratch, ColumnBatch* batch,
                     uint64_t* raw) {
  if (scan.paged != nullptr) {
    return LoadPagedBatch(*scan.paged, morsel.begin, morsel.end, scratch,
                          batch, raw);
  }
  LoadMemBatch(*cv, morsel.begin, morsel.end, scratch, batch);
  *raw += batch->rows;
  return Status::OK();
}

}  // namespace

data::Schema ParallelPlan::OutputSchema() const {
  data::Schema schema = probe.schema();
  for (const ParallelJoinStage& stage : joins) {
    schema = data::Schema::Join(stage.build.schema(), schema);
  }
  if (!project.empty()) schema = project_schema;
  if (!aggs.empty()) {
    schema = GroupAccumulator::OutputSchema(schema, group_by, aggs);
  }
  return schema;
}

Result<OperatorPtr> BuildSerial(const ParallelPlan& plan) {
  auto make_source = [](const ParallelScan& scan) -> Result<OperatorPtr> {
    OperatorPtr src;
    if (scan.paged != nullptr) {
      src = std::make_unique<PagedSource>(scan.paged);
    } else if (scan.mem != nullptr) {
      src = std::make_unique<MemSource>(scan.mem);
    } else {
      return Status::InvalidArgument("scan has neither paged nor mem input");
    }
    if (scan.filter != nullptr) {
      src = std::make_unique<FilterOp>(std::move(src), scan.filter);
    }
    return src;
  };

  DBM_ASSIGN_OR_RETURN(OperatorPtr root, make_source(plan.probe));
  for (const ParallelJoinStage& stage : plan.joins) {
    DBM_ASSIGN_OR_RETURN(OperatorPtr build, make_source(stage.build));
    root = std::make_unique<HashJoin>(std::move(build), std::move(root),
                                      stage.spec);
  }
  if (plan.post_filter != nullptr) {
    root = std::make_unique<FilterOp>(std::move(root), plan.post_filter);
  }
  if (!plan.project.empty()) {
    root = std::make_unique<ProjectOp>(std::move(root), plan.project,
                                       plan.project_schema);
  }
  if (!plan.aggs.empty()) {
    root = std::make_unique<HashAggregate>(std::move(root), plan.group_by,
                                           plan.aggs);
  }
  return root;
}

namespace {

/// One ExecuteParallel call, in stages: Prepare (coordinator-side set-up,
/// once per query), Build (one partitioned build + merge per join stage),
/// Probe (the morsel pipeline under the governor) and Finish (sink merge,
/// stats, metrics). Every stage leaves its counters behind, so the
/// profile can be assembled after any of them fails.
class ParallelRun {
 public:
  ParallelRun(const ParallelPlan& plan, const ParallelOptions& options)
      : plan_(plan),
        options_(options),
        obs_(ParObs::Get()),
        pool_(options.pool != nullptr ? *options.pool
                                      : WorkerPool::Default()),
        nstages_(plan.joins.size()),
        profiling_(options.profile != nullptr),
        aggregating_(!plan.aggs.empty()) {}

  /// Publishes the wait-state gauges and the (partial) profile with the
  /// error attributed to `phase`; returns `status`.
  Status Fail(const Status& status, const std::string& phase) {
    pool_.PublishWaitStateGauges();
    FinishProfile(status, phase);
    return status;
  }

  // Prepare: per-worker state arenas reset (chunks retained), columnar
  // views resolved (so workers never touch a relation's lazy-build
  // mutex), per-stage view layouts and per-worker sinks set up.
  void Prepare() {
    obs_.queries.Add(1);
    dop_ = std::max<size_t>(1, options_.dop);
    dop_max_ = std::min(std::max(dop_, options_.dop_max), pool_.size());
    dop_ = std::min(dop_, dop_max_);
    target_dop_.store(dop_, std::memory_order_relaxed);
    stats_.dop_initial = dop_;
    obs_.dop.Set(static_cast<double>(dop_));
    for (size_t wid = 0; wid < dop_max_; ++wid) {
      pool_.StateArena(wid).Reset();
    }
    if (plan_.probe.mem != nullptr) probe_cv_ = &plan_.probe.mem->Columnar();
    build_cv_.assign(nstages_, nullptr);
    stage_arity_.assign(nstages_ + 1, plan_.probe.schema().size());
    tables_.resize(nstages_);
    seg_cols_.assign(nstages_, nullptr);
    for (size_t s = 0; s < nstages_; ++s) {
      const ParallelScan& build = plan_.joins[s].build;
      if (build.mem != nullptr) build_cv_[s] = &build.mem->Columnar();
      stage_arity_[s + 1] = stage_arity_[s] + build.schema().size();
    }
    // The pipeline schema after j joins is build_{j-1} ++ ... ++ build_0
    // ++ probe (Schema::Join prepends each build side).
    colmaps_.resize(nstages_ + 1);
    for (size_t j = 1; j <= nstages_; ++j) {
      std::vector<ColRef>& cm = colmaps_[j];
      for (size_t k = j; k-- > 0;) {
        for (size_t c = 0; c < plan_.joins[k].build.schema().size(); ++c) {
          cm.push_back(ColRef{ColSrc::kSeg, static_cast<uint16_t>(k),
                              static_cast<uint32_t>(c)});
        }
      }
      for (size_t c = 0; c < plan_.probe.schema().size(); ++c) {
        cm.push_back(ColRef{ColSrc::kScan, 0, static_cast<uint32_t>(c)});
      }
    }
    for (size_t j = 0; j < plan_.project.size(); ++j) {
      proj_colmap_.push_back(
          ColRef{ColSrc::kComputed, 0, static_cast<uint32_t>(j)});
    }

    // Profiling (EXPLAIN ANALYZE) baselines. The profile counters are
    // only written when a profile was requested; the unprofiled path pays
    // one predictable branch per morsel. (The cheap row/batch tallies are
    // kept unconditionally — they feed query.batch.*.)
    if (profiling_) {
      prof_host_start_ = obs::NowHostNs();
      prof_allocs_before_ = obs::AllocCount();
      base_running_ = pool_.TotalBusyNs();
      base_idle_ = pool_.IdleNs();
      base_barrier_ = pool_.StateNs(obs::WaitState::kBarrier);
      base_latch_ = pool_.StateNs(obs::WaitState::kLatch);
      base_starved_ = pool_.StateNs(obs::WaitState::kStarved);
    }
    stage_prof_ = std::vector<StageProf>(nstages_);
    sinks_.resize(dop_max_);
    for (size_t wid = 0; wid < dop_max_; ++wid) {
      if (aggregating_) {
        sinks_[wid].btable.Init(&plan_.group_by, &plan_.aggs,
                                &pool_.StateArena(wid));
      }
      if (profiling_) sinks_[wid].stage_out.assign(nstages_, 0);
    }
  }

  // Build: one partitioned build + merge per join stage, at the initial
  // dop (the governor engages during the longer probe phase).
  //
  // Scan and merge are one fused pool job per stage: each worker drains
  // scan morsels into its private collector partitions, arrives at an
  // in-job barrier (a merging worker reads *every* worker's partitions,
  // so none may merge before all have finished scanning; the last to
  // arrive lays out the merged table's column arrays), then takes whole
  // partitions from a second cursor. Each partition is merged by exactly
  // one worker into its own row range, so the merged tables need no locks
  // at probe time. The barrier wait is declared obs::WaitState::kBarrier,
  // so it accrues to proc.worker.barrier_ns — not to busy time.
  Status Build(size_t s) {
    const ParallelJoinStage& stage = plan_.joins[s];
    BatchJoinTable& table = tables_[s];
    table.ncols = stage.build.schema().size();
    table.key_col = stage.spec.left_col;
    table.probe_col = stage.spec.right_col;
    StageProf& sprof = stage_prof_[s];

    size_t per_morsel = 0;
    size_t units = ScanUnits(stage.build, options_, &per_morsel);
    MorselCursor scan_cursor(units, per_morsel);
    MorselCursor merge_cursor(kBatchPartitions, 1);
    std::vector<BuildCollector> collectors(dop_);
    for (size_t wid = 0; wid < dop_; ++wid) {
      collectors[wid].Init(table.ncols, table.key_col,
                           &pool_.StateArena(wid));
    }

    // Scans one build morsel into the worker's collector as a column
    // batch (load → scan filter → partitioned append).
    auto build_morsel = [&](size_t wid, const Morsel& morsel) -> Status {
      Arena& scratch = pool_.ScratchArena(wid);
      scratch.Reset();
      ColumnBatch batch;
      uint64_t raw = 0;
      DBM_RETURN_NOT_OK(LoadScanBatch(stage.build, build_cv_[s], morsel,
                                      &scratch, &batch, &raw));
      if (stage.build.paged != nullptr) {
        sprof.pages.fetch_add(morsel.size(), std::memory_order_relaxed);
      }
      BatchView view;
      view.batch = &batch;
      view.arity = batch.ncols;
      uint32_t* sel = nullptr;
      size_t n = 0;
      DBM_RETURN_NOT_OK(SelectBatch(stage.build.filter.get(), view,
                                    batch.rows, &scratch, &sel, &n));
      collectors[wid].AddBatch(batch, sel, n, &scratch);
      build_rows_.fetch_add(n, std::memory_order_relaxed);
      sprof.raw.fetch_add(raw, std::memory_order_relaxed);
      sprof.rows.fetch_add(n, std::memory_order_relaxed);
      sprof.morsels.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };

    std::atomic<bool> scan_failed{false};
    std::mutex barrier_mu;
    std::condition_variable barrier_cv;
    size_t arrived = 0;
    const uint64_t allocs_before = profiling_ ? obs::AllocCount() : 0;
    Status status = pool_.Run(dop_, [&](size_t wid) -> Status {
      Status scan_status = Status::OK();
      Morsel morsel;
      while (scan_cursor.Next(&morsel)) {
        scan_status = fault_gate_.Check();
        if (scan_status.ok()) scan_status = build_morsel(wid, morsel);
        if (!scan_status.ok()) {
          // Poison so peers drain promptly — but still arrive at the
          // barrier below: the others are waiting for this worker too.
          scan_cursor.Poison();
          scan_failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
      {
        std::unique_lock<std::mutex> lock(barrier_mu);
        if (++arrived == dop_) {
          if (!scan_failed.load(std::memory_order_relaxed)) {
            LayoutJoinTable(collectors.data(), dop_,
                            &pool_.StateArena(wid), &table);
          }
          barrier_cv.notify_all();
        } else {
          obs::WaitStateScope wait(obs::WaitState::kBarrier);
          barrier_cv.wait(lock, [&] { return arrived == dop_; });
        }
      }
      DBM_RETURN_NOT_OK(scan_status);
      if (scan_failed.load(std::memory_order_relaxed)) return Status::OK();
      Morsel part;
      while (merge_cursor.Next(&part)) {
        for (size_t p = part.begin; p < part.end; ++p) {
          MergePartition(collectors.data(), dop_, p, &pool_.StateArena(wid),
                         &table);
        }
      }
      return Status::OK();
    });
    if (profiling_) sprof.allocs = obs::AllocCount() - allocs_before;
    seg_cols_[s] = table.cols;
    return status;
  }

  // Probe: workers draw morsels from one cursor and run ProcessMorsel on
  // each, honoring the governor's park/resume target; the coordinator
  // samples meanwhile. A failing worker poisons the cursor so the others
  // drain, and the first error becomes the job's status.
  Status Probe() {
    size_t per_morsel = 0;
    size_t units = ScanUnits(plan_.probe, options_, &per_morsel);
    MorselCursor cursor(units, per_morsel);
    stats_.morsels = cursor.total_morsels();
    auto worker = [&](size_t wid) -> Status {
      Morsel morsel;
      while (true) {
        if (wid > 0 && wid >= target_dop_.load(std::memory_order_relaxed)) {
          // Parked: this vCPU is above the governor's current dop. Check
          // back shortly — the governor may scale up, or the scan may
          // end. Parked time is morsel-starvation, not work: without the
          // scope it would count as busy and inflate exec.worker-util.
          if (cursor.Exhausted()) return Status::OK();
          obs::WaitStateScope wait(obs::WaitState::kStarved);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        if (!cursor.Next(&morsel)) return Status::OK();
        Status status = fault_gate_.Check();
        if (status.ok()) status = ProcessMorsel(wid, morsel);
        if (!status.ok()) {
          cursor.Poison();
          return status;
        }
        morsels_done_.fetch_add(1, std::memory_order_relaxed);
      }
    };
    std::shared_ptr<WorkerPool::Job> job = pool_.Launch(dop_max_, worker);
    Coordinate(job.get());
    return job->Wait();
  }

  // Finish: merges sinks in worker order (deterministic given a fixed
  // schedule; consumers normalize order before comparing across dops
  // anyway). Each worker's arena table exports its partial groups through
  // GroupAccumulator::FoldPartial, whose Finish() orders groups
  // deterministically.
  ParallelStats Finish(std::vector<Tuple>* out) {
    stats_.build_rows = build_rows_.load(std::memory_order_relaxed);
    uint64_t processed = 0;
    uint64_t raw_probe = 0, scan_probe = 0;
    for (const WorkerSink& sink : sinks_) {
      processed += sink.rows_out;
      raw_probe += sink.raw_rows;
      scan_probe += sink.scan_rows;
      stats_.batches += sink.batches;
      stats_.steady_allocs += sink.steady_allocs;
    }
    if (aggregating_) {
      GroupAccumulator merged(plan_.group_by, plan_.aggs);
      for (const WorkerSink& sink : sinks_) sink.btable.ExportTo(&merged);
      std::vector<Tuple> rows = merged.Finish();
      stats_.rows = rows.size();
      if (out != nullptr) {
        out->reserve(out->size() + rows.size());
        for (Tuple& row : rows) out->push_back(std::move(row));
      }
    } else {
      stats_.rows = processed;
      if (out != nullptr) {
        out->reserve(out->size() + processed);
        for (WorkerSink& sink : sinks_) {
          for (Tuple& row : sink.rows) out->push_back(std::move(row));
        }
      }
    }

    const uint64_t morsels = morsels_done_.load(std::memory_order_relaxed);
    stats_.dop_final = target_dop_.load(std::memory_order_relaxed);
    stats_.worker_util =
        stats_.samples == 0 ? 0.0
                            : util_sum_ / static_cast<double>(stats_.samples);
    obs_.morsels.Set(static_cast<double>(morsels));
    obs_.morsels_total.Add(morsels);
    // Deterministic work measure, the same at every dop: rows flowed
    // through the pipeline plus rows built.
    obs_.work_cycles.Add(processed + stats_.build_rows);
    uint64_t batch_rows = raw_probe;
    for (const StageProf& sp : stage_prof_) {
      stats_.batches += sp.morsels.load(std::memory_order_relaxed);
      batch_rows += sp.raw.load(std::memory_order_relaxed);
    }
    obs_.batch_batches.Add(stats_.batches);
    obs_.batch_rows.Add(batch_rows);
    obs_.batch_selectivity.Set(
        raw_probe == 0 ? 1.0
                       : static_cast<double>(scan_probe) /
                             static_cast<double>(raw_probe));
    pool_.PublishWaitStateGauges();
    FinishProfile(Status::OK(), "");
    return stats_;
  }

 private:
  /// Per-join-stage build-phase counters (worker-written, hence atomic).
  /// Each build morsel is one batch.
  struct StageProf {
    std::atomic<uint64_t> raw{0};      // build rows read, pre scan-filter
    std::atomic<uint64_t> rows{0};     // build rows kept (post filter)
    std::atomic<uint64_t> morsels{0};  // build morsels processed
    std::atomic<uint64_t> pages{0};    // build pages touched (paged scans)
    uint64_t allocs = 0;  // coordinator-side delta around the stage job
  };

  struct WorkerSink {
    std::vector<Tuple> rows;
    BatchAggTable btable;
    uint64_t rows_out = 0;
    uint64_t raw_rows = 0;   // probe rows read, pre scan-filter
    uint64_t scan_rows = 0;  // rows entering the pipeline (post filter)
    uint64_t pages = 0;      // probe pages touched
    uint64_t batches = 0;
    uint64_t steady_allocs = 0;  // operator-new calls inside morsel bodies
    std::vector<uint64_t> stage_out;  // rows out of each join stage
  };

  // One probe morsel through the whole pipeline, batch-at-a-time.
  // Everything transient comes from the worker's scratch arena (reset
  // here, chunks retained), so the steady-state body performs zero
  // operator-new calls on mem and paged scans — measured per-thread into
  // sink.steady_allocs.
  Status ProcessMorsel(size_t wid, const Morsel& morsel) {
    WorkerSink& sink = sinks_[wid];
    Arena& scratch = pool_.ScratchArena(wid);
    const uint64_t allocs_before = obs::AllocCountThisThread();
    scratch.Reset();

    ColumnBatch batch;
    DBM_RETURN_NOT_OK(LoadScanBatch(plan_.probe, probe_cv_, morsel,
                                    &scratch, &batch, &sink.raw_rows));
    if (plan_.probe.paged != nullptr) sink.pages += morsel.size();
    ++sink.batches;
    BatchView view;
    view.batch = &batch;
    view.arity = batch.ncols;
    uint32_t* sel = nullptr;
    size_t n = 0;
    DBM_RETURN_NOT_OK(SelectBatch(plan_.probe.filter.get(), view, batch.rows,
                                  &scratch, &sel, &n));
    sink.scan_rows += n;
    // The surviving selection doubles as the initial pos→row map.
    view.pos_to_row = sel;
    JoinStages(&view, &n, &scratch, &sink);
    DBM_RETURN_NOT_OK(ShapeAndSink(view, n, &scratch, &sink));
    sink.steady_allocs += obs::AllocCountThisThread() - allocs_before;
    return Status::OK();
  }

  // Probes each join stage in turn. Positions stay dense through the
  // fan-out: `pos_to_row` maps them back to scan rows and `seg_rows[k]`
  // to stage k's build rows. *view ends as the view over the whole
  // joined schema.
  void JoinStages(BatchView* view, size_t* n, Arena* scratch,
                  WorkerSink* sink) {
    uint32_t** seg_rows = scratch->AllocateArray<uint32_t*>(nstages_);
    std::fill(seg_rows, seg_rows + nstages_, nullptr);
    view->seg_cols = seg_cols_.data();
    view->seg_rows = seg_rows;
    for (size_t st = 0; st < nstages_ && *n > 0; ++st) {
      view->colmap = st > 0 ? colmaps_[st].data() : nullptr;
      view->arity = stage_arity_[st];
      ArenaVec<uint32_t> match_pos, match_rows;
      match_pos.Init(scratch);
      match_rows.Init(scratch);
      ProbeJoin(tables_[st], *view, *n, scratch, &match_pos, &match_rows);
      const size_t m = match_pos.size();
      uint32_t* scan_rows = scratch->AllocateArray<uint32_t>(m);
      for (size_t i = 0; i < m; ++i) {
        scan_rows[i] = view->pos_to_row != nullptr
                           ? view->pos_to_row[match_pos[i]]
                           : match_pos[i];
      }
      for (size_t k = 0; k < st; ++k) {
        uint32_t* remap = scratch->AllocateArray<uint32_t>(m);
        for (size_t i = 0; i < m; ++i) remap[i] = seg_rows[k][match_pos[i]];
        seg_rows[k] = remap;
      }
      seg_rows[st] = match_rows.data();
      view->pos_to_row = scan_rows;
      *n = m;
      if (profiling_) sink->stage_out[st] += m;
    }
    view->colmap = nstages_ > 0 ? colmaps_[nstages_].data() : nullptr;
    view->arity = stage_arity_[nstages_];
  }

  // Post-filter, projection, then the worker's sink: an aggregation table
  // fold or result rows.
  Status ShapeAndSink(const BatchView& full, size_t n, Arena* scratch,
                      WorkerSink* sink) {
    uint32_t* sel = nullptr;
    DBM_RETURN_NOT_OK(SelectBatch(plan_.post_filter.get(), full, n, scratch,
                                  &sel, &n));
    // Projection → computed columns (dense, so the selection resets).
    BatchView shaped = full;
    if (!plan_.project.empty()) {
      const Cell** computed =
          scratch->AllocateArray<const Cell*>(plan_.project.size());
      for (size_t j = 0; j < plan_.project.size(); ++j) {
        Cell* col = scratch->AllocateArray<Cell>(n);
        DBM_RETURN_NOT_OK(
            EvalBatch(*plan_.project[j], full, sel, n, col, scratch));
        computed[j] = col;
      }
      shaped = BatchView();
      shaped.colmap = proj_colmap_.data();
      shaped.arity = plan_.project.size();
      shaped.computed = computed;
      sel = nullptr;
    }
    if (aggregating_) {
      sink->btable.Fold(shaped, sel, n);
    } else {
      for (size_t i = 0; i < n; ++i) {
        uint32_t pos = sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
        Tuple t;
        t.values.reserve(shaped.arity);
        for (size_t c = 0; c < shaped.arity; ++c) {
          t.values.push_back(CellToValue(shaped.Get(c, pos)));
        }
        sink->rows.push_back(std::move(t));
      }
    }
    sink->rows_out += n;
    return Status::OK();
  }

  // While the probe job runs, samples utilization, publishes the exec.*
  // metrics and lets the governor move the dop target. The MetricBus is
  // coordinator-only by contract, so all publishing happens here, never
  // on workers.
  void Coordinate(WorkerPool::Job* job) {
    uint64_t last_busy = pool_.TotalBusyNs();
    auto last_wall = std::chrono::steady_clock::now();
    while (!job->WaitFor(options_.govern_interval)) {
      uint64_t busy = pool_.TotalBusyNs();
      auto wall = std::chrono::steady_clock::now();
      double wall_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall -
                                                               last_wall)
              .count());
      size_t active = target_dop_.load(std::memory_order_relaxed);
      double util =
          wall_ns == 0
              ? 0.0
              : 100.0 * static_cast<double>(busy - last_busy) /
                    (wall_ns * static_cast<double>(active == 0 ? 1 : active));
      util = std::min(util, 100.0);
      last_busy = busy;
      last_wall = wall;
      ++stats_.samples;
      util_sum_ += util;

      GovernorSample sample;
      sample.dop = active;
      sample.dop_max = dop_max_;
      sample.worker_util = util;
      sample.morsels_done = morsels_done_.load(std::memory_order_relaxed);
      sample.barrier_ns = pool_.StateNs(obs::WaitState::kBarrier);
      sample.starved_ns = pool_.StateNs(obs::WaitState::kStarved);

      obs_.dop.Set(static_cast<double>(active));
      obs_.morsels.Set(static_cast<double>(sample.morsels_done));
      obs_.util.Set(util);
      pool_.PublishWaitStateGauges();
      if (options_.bus != nullptr) {
        SimTime at = static_cast<SimTime>(stats_.samples);
        options_.bus->Publish("exec.dop", static_cast<double>(active), at);
        options_.bus->Publish("exec.morsels",
                              static_cast<double>(sample.morsels_done), at);
        options_.bus->Publish("exec.worker-util", util, at);
      }
      if (options_.governor) {
        size_t want = options_.governor(sample);
        if (want != 0) {
          want = std::clamp<size_t>(want, 1, dop_max_);
          if (want != active) {
            target_dop_.store(want, std::memory_order_relaxed);
            ++stats_.dop_switches;
          }
        }
      }
    }
  }

  // Assembles the plan-shaped profile tree from the stage counters and
  // publishes it. Called on success and on any stage's failure — a failed
  // query still leaves a (partial) profile behind, with the error
  // attributed to the stage that raised it. The tree mirrors BuildSerial()
  // node-for-node: aggregate → project → filter → join chain (each
  // hash-join's children are [build subtree, probe subtree]), so profiles
  // compare across dops.
  void FinishProfile(const Status& status, const std::string& failed_phase) {
    if (!profiling_) return;
    QueryProfile& prof = *options_.profile;

    auto scan_subtree = [](const ParallelScan& scan, uint64_t raw,
                           uint64_t post, uint64_t pages,
                           uint64_t morsels, uint64_t batches) {
      ProfileNode leaf;
      leaf.name = scan.paged != nullptr
                      ? "paged-scan(" + scan.paged->name() + ")"
                      : "scan(" + scan.mem->name() + ")";
      leaf.rows_out = raw;
      leaf.work_cycles = raw;
      leaf.pages = pages;
      leaf.morsels = morsels;
      leaf.batches = batches;
      if (scan.filter == nullptr) return leaf;
      ProfileNode filter;
      filter.name = "filter(" + scan.filter->ToString() + ")";
      filter.rows_in = raw;
      filter.rows_out = post;
      filter.work_cycles = post;
      if (raw > 0) {
        filter.selectivity =
            static_cast<double>(post) / static_cast<double>(raw);
      }
      filter.children.push_back(std::move(leaf));
      return filter;
    };

    uint64_t shaped_total = 0, raw_probe = 0, scan_probe = 0,
             probe_pages = 0, probe_batches = 0;
    std::vector<uint64_t> stage_total(nstages_, 0);
    for (const WorkerSink& sink : sinks_) {
      shaped_total += sink.rows_out;
      raw_probe += sink.raw_rows;
      scan_probe += sink.scan_rows;
      probe_pages += sink.pages;
      probe_batches += sink.batches;
      for (size_t s = 0; s < sink.stage_out.size(); ++s) {
        stage_total[s] += sink.stage_out[s];
      }
    }
    const uint64_t probe_morsels =
        morsels_done_.load(std::memory_order_relaxed);

    ProfileNode node = scan_subtree(plan_.probe, raw_probe, scan_probe,
                                    probe_pages, probe_morsels,
                                    probe_batches);
    uint64_t stage_allocs = 0;
    uint64_t stage_morsels = 0;
    for (size_t s = 0; s < nstages_; ++s) {
      const StageProf& sp = stage_prof_[s];
      const uint64_t morsels = sp.morsels.load(std::memory_order_relaxed);
      stage_morsels += morsels;
      ProfileNode build = scan_subtree(
          plan_.joins[s].build, sp.raw.load(std::memory_order_relaxed),
          sp.rows.load(std::memory_order_relaxed),
          sp.pages.load(std::memory_order_relaxed), morsels, morsels);
      ProfileNode join;
      join.name = "hash-join";
      join.rows_out = stage_total[s];
      join.work_cycles = join.rows_out;
      join.allocs = sp.allocs;
      stage_allocs += sp.allocs;
      join.rows_in = build.rows_out + node.rows_out;
      join.children.push_back(std::move(build));
      join.children.push_back(std::move(node));
      node = std::move(join);
    }
    // Puts `node` under a new parent `name` that emits `rows_out`.
    auto wrap = [&node](std::string name, uint64_t rows_out) {
      ProfileNode parent;
      parent.name = std::move(name);
      parent.rows_in = node.rows_out;
      parent.rows_out = rows_out;
      parent.work_cycles = rows_out;
      parent.children.push_back(std::move(node));
      node = std::move(parent);
    };
    if (plan_.post_filter != nullptr) {
      wrap("filter(" + plan_.post_filter->ToString() + ")", shaped_total);
      if (node.rows_in > 0) {
        node.selectivity = static_cast<double>(shaped_total) /
                           static_cast<double>(node.rows_in);
      }
    }
    if (!plan_.project.empty()) wrap("project", shaped_total);
    if (aggregating_) wrap("aggregate", stats_.rows);
    prof.root = std::move(node);
    prof.dop = stats_.dop_initial;
    prof.total_rows = stats_.rows;
    prof.total_allocs = obs::AllocCount() - prof_allocs_before_;
    // Stage deltas are sub-intervals of the run's delta on one monotonic
    // counter, so the remainder (probe + merge + coordinator) is
    // non-negative; assigning it to the root keeps Σ allocs == total.
    prof.root.allocs += prof.total_allocs - stage_allocs;
    prof.total_cycles = prof.SumCycles();
    prof.total_pages = prof.SumPages();
    prof.total_morsels = probe_morsels + stage_morsels;
    prof.host_ns = obs::NowHostNs() - prof_host_start_;
    auto delta = [](uint64_t now, uint64_t base) {
      return now > base ? now - base : 0;
    };
    prof.running_ns = delta(pool_.TotalBusyNs(), base_running_);
    prof.idle_ns = delta(pool_.IdleNs(), base_idle_);
    prof.barrier_ns =
        delta(pool_.StateNs(obs::WaitState::kBarrier), base_barrier_);
    prof.latch_ns = delta(pool_.StateNs(obs::WaitState::kLatch), base_latch_);
    prof.starved_ns =
        delta(pool_.StateNs(obs::WaitState::kStarved), base_starved_);
    if (!status.ok()) {
      prof.error = status.message();
      prof.failed_phase = failed_phase;
    }
    const obs::TraceContext& ctx = obs::CurrentContext();
    if (ctx.valid()) prof.trace_id = ctx.trace_id.ToHex();
    PublishProfile(prof);
  }

  const ParallelPlan& plan_;
  const ParallelOptions& options_;
  ParObs& obs_;
  WorkerPool& pool_;
  const size_t nstages_;
  const bool profiling_;
  const bool aggregating_;
  size_t dop_ = 1;
  size_t dop_max_ = 1;
  MorselFaultGate fault_gate_;
  std::atomic<size_t> target_dop_{1};
  ParallelStats stats_;
  double util_sum_ = 0;
  std::atomic<uint64_t> morsels_done_{0};
  std::atomic<uint64_t> build_rows_{0};

  // Prepare's products.
  const data::ColumnarView* probe_cv_ = nullptr;
  std::vector<const data::ColumnarView*> build_cv_;
  std::vector<size_t> stage_arity_;
  std::vector<std::vector<ColRef>> colmaps_;  // colmaps_[j]: after j joins
  std::vector<ColRef> proj_colmap_;
  std::vector<BatchJoinTable> tables_;
  std::vector<const Column*> seg_cols_;  // tables_[k].cols, once built
  std::vector<StageProf> stage_prof_;
  std::vector<WorkerSink> sinks_;

  uint64_t prof_host_start_ = 0;
  uint64_t prof_allocs_before_ = 0;
  uint64_t base_running_ = 0, base_idle_ = 0, base_barrier_ = 0,
           base_latch_ = 0, base_starved_ = 0;
};

}  // namespace

Result<ParallelStats> ExecuteParallel(const ParallelPlan& plan,
                                      std::vector<Tuple>* out,
                                      const ParallelOptions& options) {
  if (plan.probe.paged == nullptr && plan.probe.mem == nullptr) {
    return Status::InvalidArgument("parallel plan has no probe input");
  }
  ParallelRun run(plan, options);
  run.Prepare();
  for (size_t s = 0; s < plan.joins.size(); ++s) {
    Status status = run.Build(s);
    if (!status.ok()) return run.Fail(status, "build#" + std::to_string(s));
  }
  Status status = run.Probe();
  if (!status.ok()) return run.Fail(status, "probe");
  return run.Finish(out);
}

}  // namespace dbm::query
