#include "query/pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"

namespace dbm::query {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t DefaultWidth() {
  if (const char* env = std::getenv("DBM_WORKERS")) {
    long n = std::atol(env);
    if (n >= 1 && n <= 64) return static_cast<size_t>(n);
  }
  size_t hw = std::thread::hardware_concurrency();
  if (hw < 8) return 8;
  if (hw > 16) return 16;
  return hw;
}

}  // namespace

Status WorkerPool::Job::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_.load(std::memory_order_acquire); });
  return status_;
}

bool WorkerPool::Job::WaitFor(std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] {
    return done_.load(std::memory_order_acquire);
  });
}

WorkerPool::WorkerPool(size_t workers) {
  size_t n = workers == 0 ? 1 : workers;
  slots_.reserve(n);
  scratch_arenas_.reserve(n);
  state_arenas_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
    scratch_arenas_.push_back(std::make_unique<Arena>());
    state_arenas_.push_back(std::make_unique<Arena>());
    // A worker's first chunks come now, not inside its first morsel
    // body, so a worker that first draws work on a warm query still
    // allocates nothing there.
    scratch_arenas_.back()->Prime();
    state_arenas_.back()->Prime();
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
  obs::Registry::Default().GetGauge("proc.workers").Set(
      static_cast<double>(n));
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

WorkerPool& WorkerPool::Default() {
  static WorkerPool* pool = new WorkerPool(DefaultWidth());
  return *pool;
}

std::shared_ptr<WorkerPool::Job> WorkerPool::Launch(size_t width,
                                                    WorkFn fn) {
  if (width == 0) width = 1;
  if (width > workers_.size()) width = workers_.size();
  auto job = std::make_shared<Job>();
  job->fn_ = std::move(fn);
  job->width_ = width;
  job->remaining_.store(width, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return job_ == nullptr; });
    job_ = job;
    ++epoch_;
  }
  work_cv_.notify_all();
  return job;
}

Status WorkerPool::Run(size_t width, WorkFn fn) {
  return Launch(width, std::move(fn))->Wait();
}

Status WorkerPool::ParallelFor(size_t n, size_t width, const RangeFn& fn) {
  if (n == 0) return Status::OK();
  if (width == 0) width = 1;
  if (width > workers_.size()) width = workers_.size();
  if (width > n) width = n;
  const size_t chunk = (n + width - 1) / width;
  return Run(width, [n, chunk, &fn](size_t worker) -> Status {
    const size_t begin = worker * chunk;
    if (begin >= n) return Status::OK();
    const size_t end = begin + chunk < n ? begin + chunk : n;
    return fn(begin, end, worker);
  });
}

uint64_t WorkerPool::TotalBusyNs() const {
  uint64_t total = 0;
  uint64_t now = NowNs();
  for (const auto& slot : slots_) {
    total += slot->busy_ns.load(std::memory_order_relaxed);
    uint64_t since = slot->running_since.load(std::memory_order_relaxed);
    // Benign race: the worker may finish between the loads, counting a
    // sliver twice — jitter the governor's gauge tolerates.
    if (since != 0 && now > since) {
      uint64_t in_flight = now - since;
      // Running means *running*: subtract the in-flight job's declared
      // waits (completed scopes, then the one currently open if any).
      uint64_t waited = slot->job_wait_ns.load(std::memory_order_relaxed);
      uint64_t wait_since = slot->wait_since.load(std::memory_order_relaxed);
      if (wait_since != 0 && now > wait_since) waited += now - wait_since;
      in_flight -= std::min(in_flight, waited);
      total += in_flight;
    }
  }
  return total;
}

uint64_t WorkerPool::StateNs(obs::WaitState state) const {
  const size_t s = static_cast<size_t>(state);
  uint64_t total = 0;
  uint64_t now = NowNs();
  for (const auto& slot : slots_) {
    total += slot->state_ns[s].load(std::memory_order_relaxed);
    if (slot->wait_state.load(std::memory_order_relaxed) ==
        static_cast<int>(state)) {
      uint64_t since = slot->wait_since.load(std::memory_order_relaxed);
      if (since != 0 && now > since) total += now - since;
    }
  }
  return total;
}

uint64_t WorkerPool::IdleNs() const {
  uint64_t total = 0;
  uint64_t now = NowNs();
  for (const auto& slot : slots_) {
    total += slot->idle_ns.load(std::memory_order_relaxed);
    uint64_t since = slot->idle_since.load(std::memory_order_relaxed);
    if (since != 0 && now > since) total += now - since;
  }
  return total;
}

void WorkerPool::PublishWaitStateGauges() const {
  // Handles resolved once; several pools may publish (last write wins —
  // the gauges describe the most recently active pool, which is the one
  // running queries).
  struct StateObs {
    obs::Gauge& running;
    obs::Gauge& idle;
    obs::Gauge& barrier;
    obs::Gauge& latch;
    obs::Gauge& starved;
  };
  static StateObs* g = [] {
    obs::Registry& reg = obs::Registry::Default();
    return new StateObs{reg.GetGauge("proc.worker.running_ns"),
                        reg.GetGauge("proc.worker.idle_ns"),
                        reg.GetGauge("proc.worker.barrier_ns"),
                        reg.GetGauge("proc.worker.latch_ns"),
                        reg.GetGauge("proc.worker.starved_ns")};
  }();
  g->running.Set(static_cast<double>(TotalBusyNs()));
  g->idle.Set(static_cast<double>(IdleNs()));
  g->barrier.Set(static_cast<double>(StateNs(obs::WaitState::kBarrier)));
  g->latch.Set(static_cast<double>(StateNs(obs::WaitState::kLatch)));
  g->starved.Set(static_cast<double>(StateNs(obs::WaitState::kStarved)));
}

void WorkerPool::WaitRecorder(void* ctx, obs::WaitState state, bool enter) {
  WorkerSlot& slot = *static_cast<WorkerSlot*>(ctx);
  if (enter) {
    // Nested scopes attribute the whole nest to the outermost state.
    if (slot.wait_depth++ > 0) return;
    slot.wait_state.store(static_cast<int>(state),
                          std::memory_order_relaxed);
    slot.wait_since.store(NowNs(), std::memory_order_relaxed);
    return;
  }
  if (--slot.wait_depth > 0) return;
  uint64_t since = slot.wait_since.exchange(0, std::memory_order_relaxed);
  int s = slot.wait_state.exchange(-1, std::memory_order_relaxed);
  if (since == 0 || s < 0) return;
  uint64_t now = NowNs();
  uint64_t waited = now > since ? now - since : 0;
  slot.state_ns[s].fetch_add(waited, std::memory_order_relaxed);
  slot.job_wait_ns.fetch_add(waited, std::memory_order_relaxed);
}

void WorkerPool::WorkerMain(size_t id) {
  WorkerSlot& slot = *slots_[id];
  obs::SetThreadWaitRecorder(&WorkerPool::WaitRecorder, &slot);
  slot.idle_since.store(NowNs(), std::memory_order_relaxed);
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (job_ != nullptr && slot.seen_epoch != epoch_);
      });
      if (stopping_) return;
      slot.seen_epoch = epoch_;
      job = job_;
    }
    if (id >= job->width_) continue;

    uint64_t start = NowNs();
    uint64_t idle_from = slot.idle_since.exchange(0,
                                                  std::memory_order_relaxed);
    if (idle_from != 0 && start > idle_from) {
      slot.idle_ns.fetch_add(start - idle_from, std::memory_order_relaxed);
    }
    slot.job_wait_ns.store(0, std::memory_order_relaxed);
    slot.running_since.store(start, std::memory_order_relaxed);
    Status status = job->fn_(id);
    uint64_t end = NowNs();
    slot.running_since.store(0, std::memory_order_relaxed);
    uint64_t waited = slot.job_wait_ns.exchange(0, std::memory_order_relaxed);
    uint64_t ran = end - start;
    slot.busy_ns.fetch_add(ran - std::min(ran, waited),
                           std::memory_order_relaxed);
    slot.idle_since.store(end, std::memory_order_relaxed);

    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(job->mu_);
      if (job->status_.ok()) job->status_ = std::move(status);
    }
    if (job->remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      {
        std::lock_guard<std::mutex> lock(job->mu_);
        job->done_.store(true, std::memory_order_release);
      }
      job->cv_.notify_all();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (job_ == job) job_.reset();
      }
      idle_cv_.notify_all();
    }
  }
}

}  // namespace dbm::query
