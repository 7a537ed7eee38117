#include <algorithm>

#include "cc/workloads.h"

namespace perfbench {

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = [] {
    std::vector<Metric> m = {
        {"query.exec_ms_p50", 0, "ms"},
        {"query.rows_per_ms", 0, "rows/ms"},
        {"query.worker_util", 0, "%"},
        {"query.steady_allocs", 0, "count"},
        {"storage.buffer.gets_per_row", 0, "gets/row"},
        {"storage.buffer.hit_rate", 0, "ratio"},
        {"storage.buffer.evictions_per_krow", 0, "count/krow"},
        {"storage.buffer.writebacks_per_commit", 0, "count/commit"},
        {"storage.wal.bytes_per_row", 0, "B/row"},
        {"storage.wal.appends_per_commit", 0, "count/commit"},
        {"storage.wal.fsyncs_per_commit", 0, "count/commit"},
        {"storage.wal.flush_ms_p50", 0, "ms"},
        {"storage.disk.bytes_per_row", 0, "B/row"},
        {"storage.btree.insert_us_p50", 0, "us"},
        {"storage.btree.search_us_p50", 0, "us"},
        {"storage.paged.append_us_p50", 0, "us"},
        {"patia.frontdoor.requests_per_batch", 0, "count/batch"},
        {"patia.frontdoor.queue_ms_p50", 0, "ms"},
        {"patia.content_us_p50", 0, "us"},
        {"patia.host_us_per_request", 0, "us"},
        {"os.orb.cycles_per_request", 0, "cycles"},
        {"net.bytes_per_request", 0, "B"},
        {"adapt.decisions", 0, "count"},
    };
    for (const std::string& layer : TracedLayers()) {
      m.push_back({layer + ".self_us_per_op", 0, "us"});
    }
    m.push_back({"trace.spans_per_op", 0, "count"});
    m.push_back({"trace.overhead_pct", 0, "%"});
    return m;
  }();
  return kMetrics;
}

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit) {
  auto it = std::find_if(metrics->begin(), metrics->end(),
                         [&](const Metric& m) { return m.name == name; });
  if (it != metrics->end()) {
    it->value = value;
    it->unit = unit;
  } else {
    metrics->push_back({name, value, unit});
  }
}

void AddTraceMetrics(RunResult* result, uint64_t traced_ops,
                     double traced_op_ns, double untraced_op_ns) {
  const Tracer& tracer = Tracer::Get();
  const double ops = static_cast<double>(std::max<uint64_t>(traced_ops, 1));
  for (const std::string& layer : TracedLayers()) {
    auto it = tracer.self_ns().find(layer);
    const double ns = it != tracer.self_ns().end()
                          ? static_cast<double>(it->second)
                          : 0.0;
    SetMetric(&result->per_layer, layer + ".self_us_per_op", ns / ops / 1e3,
              "us");
  }
  SetMetric(&result->per_layer, "trace.spans_per_op",
            static_cast<double>(tracer.spans()) / ops, "count");
  SetMetric(&result->per_layer, "trace.overhead_pct",
            untraced_op_ns > 0 ? (traced_op_ns / untraced_op_ns - 1) * 100
                               : 0.0,
            "%");
  if (tracer.unbalanced() != 0) {
    result->Fail(std::to_string(tracer.unbalanced()) +
                 " traced operations whose layer self times do not sum to "
                 "the operation's span");
  }
}

}  // namespace perfbench
