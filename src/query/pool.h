// The vCPU worker pool: the parallel plane's processors.
//
// The Go! machine of the paper is "one-mode": there is no kernel/user
// split, so a query's workers ARE the machine's virtual CPUs. The os/
// layer models a single simulated Vcpu driven by a scheduler; this pool
// is the host-parallel counterpart — N persistent std::threads, one per
// vCPU, that the parallel executor dispatches morsel work onto. The pool
// is created once and reused across queries (thread creation is far more
// expensive than a morsel), and its width is published as the
// `proc.workers` gauge so the Fig-1 plane can see how much hardware the
// query plane has to play with.
//
// Dispatch protocol: one job in flight at a time. Launch(width, fn)
// wakes every worker whose vCPU id is < width; each runs fn(id) to
// completion and the last participant marks the job done. Errors are
// first-wins: the job's status is the first non-OK return, and the
// remaining workers still drain (morsel sources are poisoned by the
// failing worker, so the drain is prompt) — a worker fault fails the
// query, never the pool.

#ifndef DBM_QUERY_POOL_H_
#define DBM_QUERY_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "obs/waitstate.h"

namespace dbm::query {

class WorkerPool {
 public:
  /// Work run by each participating worker; `worker` is the vCPU id in
  /// [0, width). Must be safe to run concurrently with itself.
  using WorkFn = std::function<Status(size_t worker)>;

  /// One dispatched parallel job. Obtained from Launch(); the coordinator
  /// Wait()s (or polls WaitFor() while running its governor loop).
  class Job {
   public:
    /// Blocks until every participant has returned; yields the job's
    /// first-error-wins status.
    Status Wait();

    /// Waits up to `timeout`; true when the job finished.
    bool WaitFor(std::chrono::nanoseconds timeout);

    bool done() const { return done_.load(std::memory_order_acquire); }

   private:
    friend class WorkerPool;
    WorkFn fn_;
    size_t width_ = 0;
    std::atomic<size_t> remaining_{0};
    std::atomic<bool> done_{false};
    std::mutex mu_;
    std::condition_variable cv_;
    Status status_ = Status::OK();  // guarded by mu_
  };

  /// Spawns `workers` persistent threads (at least 1).
  explicit WorkerPool(size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The process-wide pool the parallel executor uses by default. Sized
  /// from DBM_WORKERS when set, else hardware_concurrency clamped to
  /// [8, 16] — at least 8 so dop=8 plans run (oversubscribed on small
  /// hosts, which is what a morsel-driven design tolerates by default).
  static WorkerPool& Default();

  size_t size() const { return workers_.size(); }

  /// Dispatches fn onto workers [0, width). Width is clamped to the pool
  /// size. Blocks while another job is in flight (one at a time — the
  /// parallel executor owns the whole pool for a query's duration).
  std::shared_ptr<Job> Launch(size_t width, WorkFn fn);

  /// Launch + Wait.
  Status Run(size_t width, WorkFn fn);

  /// Work on one contiguous slice of [0, n); `worker` is the vCPU id.
  using RangeFn = std::function<Status(size_t begin, size_t end, size_t worker)>;

  /// Partitions [0, n) into up to `width` contiguous slices and runs
  /// `fn(begin, end, worker)` on each, one slice per worker. The static
  /// partition fits admission batches (uniform per-item cost); morsel
  /// work-stealing stays the executor's job. No-op on n == 0.
  Status ParallelFor(size_t n, size_t width, const RangeFn& fn);

  /// Host nanoseconds all workers have spent *running* job functions
  /// since pool creation, including time inside still-running functions
  /// (a morsel loop is one long fn invocation — the governor samples
  /// mid-job, so completed-only accounting would read zero until the
  /// query ended) but EXCLUDING time the job fn spent blocked inside a
  /// declared obs::WaitStateScope (barrier, latch, morsel-starved park).
  /// Counting blocked time as busy is exactly what used to inflate
  /// `exec.worker-util` and mislead the dop governor on barrier-bound
  /// plans. Utilization over an interval is Δbusy / (Δwall × dop).
  uint64_t TotalBusyNs() const;

  /// Cumulative host ns workers have spent blocked in `state` scopes,
  /// including an in-progress wait. The pool's workers install a
  /// per-thread wait recorder (obs/waitstate.h) on startup; scopes
  /// opened on non-pool threads are invisible here.
  uint64_t StateNs(obs::WaitState state) const;

  /// Cumulative host ns workers have spent between jobs (parked in the
  /// dispatch wait, or sitting out a job narrower than the pool).
  uint64_t IdleNs() const;

  /// Publishes the five wait-state ledgers as `proc.worker.<state>_ns`
  /// gauges (running / idle / barrier / latch / starved). Called by the
  /// parallel executor's coordinator each governor interval and at job
  /// end; cheap enough to call whenever fresh numbers are wanted.
  void PublishWaitStateGauges() const;

  /// Per-worker slab arenas for the batch engine (see common/arena.h).
  /// Scratch is reset at every morsel, state at every query; both retain
  /// their chunks, and both get their first chunk when the pool is built,
  /// so once a query has sized them the morsel hot path performs zero
  /// operator-new calls on every worker. Worker `wid`'s arenas may
  /// only be touched by that worker while a job is in flight (the
  /// coordinator resets state arenas between jobs, when no worker runs).
  Arena& ScratchArena(size_t wid) { return *scratch_arenas_[wid]; }
  Arena& StateArena(size_t wid) { return *state_arenas_[wid]; }

 private:
  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> busy_ns{0};  // completed-job running time
    /// Start timestamp of the fn invocation in flight (0 = idle), so
    /// TotalBusyNs can count in-progress work.
    std::atomic<uint64_t> running_since{0};
    /// Wait time accumulated inside the in-flight job (folded into
    /// busy_ns's exclusion at job end; read by TotalBusyNs mid-job).
    std::atomic<uint64_t> job_wait_ns{0};
    /// Nonzero while inside a wait scope: its start timestamp.
    std::atomic<uint64_t> wait_since{0};
    std::atomic<int> wait_state{-1};
    /// Cumulative per-state wait ledgers (completed scopes only; an
    /// in-progress wait is added by the readers via wait_since).
    std::atomic<uint64_t> state_ns[obs::kWaitStateCount] = {};
    std::atomic<uint64_t> idle_ns{0};
    std::atomic<uint64_t> idle_since{0};
    uint64_t seen_epoch = 0;  // worker-thread private
    int wait_depth = 0;       // worker-thread private (nested scopes)
  };

  static void WaitRecorder(void* ctx, obs::WaitState state, bool enter);
  void WorkerMain(size_t id);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a job
  std::condition_variable idle_cv_;   // Launch waits here for idleness
  std::shared_ptr<Job> job_;          // in-flight job (guarded by mu_)
  uint64_t epoch_ = 0;                // bumps once per Launch
  bool stopping_ = false;

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Arena>> scratch_arenas_;
  std::vector<std::unique_ptr<Arena>> state_arenas_;
};

}  // namespace dbm::query

#endif  // DBM_QUERY_POOL_H_
