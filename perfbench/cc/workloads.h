// The three workloads. Each builds its world from the seed, times
// several set-ups (reporting their median), warms up, runs closed-loop for args.seconds, checks
// every output against answers computed apart from the machine, and
// returns its metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <memory>

#include "cc/common.h"
#include "cc/trace.h"
#include "query/pool.h"
#include "storage/page.h"

namespace perfbench {

/// `pool` is the benchmark's one worker pool, passed to every parallel
/// call site so WorkerPool::Default() is never created.
RunResult RunOlap(const Args& args, dbm::query::WorkerPool* pool);
RunResult RunIngest(const Args& args);
RunResult RunCrowd(const Args& args, dbm::query::WorkerPool* pool);

/// A disk that forwards every page operation to `inner` inside a
/// storage.disk span and counts the bytes it writes, so disk time and
/// traffic are measured from outside the disk layer.
class TracedDisk : public dbm::storage::DiskComponent {
 public:
  /// `slot_bytes`: bytes one page write puts on the device.
  TracedDisk(std::shared_ptr<dbm::storage::DiskComponent> inner,
             size_t slot_bytes)
      : DiskComponent("disk"), inner_(std::move(inner)),
        slot_bytes_(slot_bytes) {}

  dbm::storage::PageId Allocate() override {
    Span span(kLayerDisk, "disk.allocate");
    return inner_->Allocate();
  }
  dbm::Status Read(dbm::storage::PageId id,
                   dbm::storage::Page* out) override {
    Span span(kLayerDisk, "disk.read", id);
    return inner_->Read(id, out);
  }
  dbm::Status Write(dbm::storage::PageId id, const dbm::storage::Page& page,
                    uint64_t lsn) override {
    Span span(kLayerDisk, "disk.write", id);
    bytes_written_.fetch_add(slot_bytes_, std::memory_order_relaxed);
    return inner_->Write(id, page, lsn);
  }
  dbm::Status Sync() override {
    Span span(kLayerDisk, "disk.sync");
    return inner_->Sync();
  }
  size_t page_count() const override { return inner_->page_count(); }

  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t page_reads() const { return inner_->reads(); }

 private:
  std::shared_ptr<dbm::storage::DiskComponent> inner_;
  size_t slot_bytes_;
  std::atomic<uint64_t> bytes_written_{0};
};

/// The per-layer metrics every workload reports, with their units and
/// value 0 (the value a workload that does not use the layer reports),
/// in report order.
const std::vector<Metric>& PerLayerMetrics();

/// Appends the traced run's span-derived metrics: per-layer self time per
/// operation, span count per operation and the tracing overhead.
/// `traced_op_ns` / `untraced_op_ns` are mean wall ns per operation of
/// the traced and untraced halves of the timed phase.
void AddTraceMetrics(RunResult* result, uint64_t traced_ops,
                     double traced_op_ns, double untraced_op_ns);

/// Sets a named metric in `metrics`, replacing an earlier value.
void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
