#include "cc/trace.h"

#include <cstdio>

#include "cc/common.h"

namespace perfbench {

const std::vector<std::string>& TracedLayers() {
  static const std::vector<std::string> kLayers = {
      kLayerBench, kLayerQuery, kLayerBuffer, kLayerWal,   kLayerDisk,
      kLayerBtree, kLayerPaged, kLayerPatia,  kLayerNet,   kLayerAdapt};
  return kLayers;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Open(const char* layer, const char* name, uint64_t id) {
  if (std::this_thread::get_id() != owner_) return -1;
  const uint64_t now = NowNs();
  int64_t record = -1;
  if (records_.size() < kMaxRecords) {
    record = static_cast<int64_t>(records_.size());
    records_.push_back(Record{name, layer, id, now, 0,
                              stack_.empty() ? -1 : stack_.back().record});
  }
  stack_.push_back(OpenSpan{layer, record, now, 0, 0});
  return static_cast<int>(stack_.size() - 1);
}

void Tracer::Close(int handle) {
  const uint64_t now = NowNs();
  if (handle != static_cast<int>(stack_.size()) - 1) {
    // Closed out of nesting order: the tree is broken from here up.
    ++unbalanced_;
    return;
  }
  OpenSpan span = stack_.back();
  stack_.pop_back();
  ++spans_;
  const uint64_t dur = now - span.start_ns;
  if (span.child_ns > dur) ++unbalanced_;
  const uint64_t self = dur - span.child_ns;
  self_ns_[span.layer] += self;
  if (span.record >= 0) records_[static_cast<size_t>(span.record)].end_ns = now;
  const uint64_t subtree = span.subtree_self_ns + self;
  if (stack_.empty()) {
    if (subtree != dur) ++unbalanced_;
  } else {
    stack_.back().child_ns += dur;
    stack_.back().subtree_self_ns += subtree;
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%lld}\n",
                 i, r.name, r.layer, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns),
                 static_cast<long long>(r.parent));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
