// Spans recorded by the benchmark around its calls into each layer of
// the machine. A span has a name, the layer it times, start and end
// (steady-clock ns), its parent and the id of the query, group or
// request it belongs to. Spans live in memory and are written out when
// the run ends; each layer's self time (its spans' time minus the part
// covered by child spans) is aggregated as spans close, so the totals
// are exact even when the in-memory record is capped.
//
// Spans are recorded on the thread that created the tracer (the main
// thread) only: every call the benchmark wraps is made from there, and
// a wrapped disk reached from a pool worker records nothing.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// Layer names: the machine's modules, plus "bench" for the benchmark's
// own code between calls.
inline constexpr const char* kLayerBench = "bench";
inline constexpr const char* kLayerQuery = "query";
inline constexpr const char* kLayerBuffer = "storage.buffer";
inline constexpr const char* kLayerWal = "storage.wal";
inline constexpr const char* kLayerDisk = "storage.disk";
inline constexpr const char* kLayerBtree = "storage.btree";
inline constexpr const char* kLayerPaged = "storage.paged";
inline constexpr const char* kLayerPatia = "patia";
inline constexpr const char* kLayerNet = "net";
inline constexpr const char* kLayerAdapt = "adapt";

/// The layers a traced run reports self time for, in report order.
const std::vector<std::string>& TracedLayers();

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. Returns a handle for
  /// Close, or -1 when called off the owner thread.
  int Open(const char* layer, const char* name, uint64_t id);
  void Close(int handle);

  /// Self ns per layer over every closed span.
  const std::map<std::string, uint64_t>& self_ns() const { return self_ns_; }
  /// Root spans whose layer self times did not sum to their duration,
  /// plus spans closed out of nesting order.
  uint64_t unbalanced() const { return unbalanced_; }
  uint64_t spans() const { return spans_; }

  /// Writes the recorded spans as JSON lines. Returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct OpenSpan {
    const char* layer;
    int64_t record;       // index into records_, -1 past the cap
    uint64_t start_ns;
    uint64_t child_ns;    // time covered by closed direct children
    uint64_t subtree_self_ns;  // self times of closed descendants
  };
  struct Record {
    const char* name;
    const char* layer;
    uint64_t id;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
  };

  static constexpr size_t kMaxRecords = 1 << 18;

  bool enabled_ = false;
  std::thread::id owner_ = std::this_thread::get_id();
  std::vector<OpenSpan> stack_;
  std::vector<Record> records_;
  std::map<std::string, uint64_t> self_ns_;
  uint64_t unbalanced_ = 0;
  uint64_t spans_ = 0;
};

/// RAII span; free when tracing is off (one branch).
class Span {
 public:
  Span(const char* layer, const char* name, uint64_t id = 0)
      : handle_(Tracer::Get().enabled() ? Tracer::Get().Open(layer, name, id)
                                        : -1) {}
  ~Span() {
    if (handle_ >= 0) Tracer::Get().Close(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
