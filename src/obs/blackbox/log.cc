#include "obs/blackbox/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common/json.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "obs/blackbox/format.h"
#include "obs/health.h"

namespace dbm::obs::blackbox {

namespace {

std::atomic<TelemetryLog*> g_installed{nullptr};

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "telem-%06llu.seg",
                static_cast<unsigned long long>(seq));
  return buf;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kRotate: return "rotate";
  }
  return "?";
}

TelemetryLog::TelemetryLog(TelemetryLogOptions options)
    : options_(std::move(options)),
      m_appended_(&Registry::Default().GetCounter("blackbox.appended")),
      m_dropped_(&Registry::Default().GetCounter("blackbox.dropped")),
      m_bytes_(&Registry::Default().GetCounter("blackbox.bytes")),
      m_fsyncs_(&Registry::Default().GetCounter("blackbox.fsyncs")),
      m_segments_(&Registry::Default().GetGauge("blackbox.segments")),
      m_flush_lag_(&Registry::Default().GetGauge("blackbox.flush_lag_us")),
      m_backlog_(&Registry::Default().GetGauge("blackbox.backlog")) {
  size_t cap = 1;
  while (cap < options_.ring_capacity) cap <<= 1;
  options_.ring_capacity = cap;
  ring_mask_ = cap - 1;
  cells_ = std::make_unique<Cell[]>(cap);
  for (size_t i = 0; i < cap; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  scratch_.reserve(kMaxPayloadBytes + kFrameHeaderBytes);
  write_point_ = fault::Injector::Default().GetPoint("obs.blackbox.write");
}

Result<std::unique_ptr<TelemetryLog>> TelemetryLog::Open(
    TelemetryLogOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("TelemetryLog needs a segment directory");
  }
  if (options.metric_sample_every == 0) options.metric_sample_every = 1;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create '" + options.dir +
                               "': " + ec.message());
  }
  std::unique_ptr<TelemetryLog> log(new TelemetryLog(std::move(options)));
  {
    std::lock_guard<std::mutex> lock(log->io_mu_);
    DBM_RETURN_NOT_OK(log->OpenSegment());
  }
  if (log->options_.start_flusher) {
    log->flusher_running_ = true;
    log->flusher_ = std::thread([raw = log.get()] { raw->FlusherMain(); });
  }
  return log;
}

TelemetryLog::~TelemetryLog() {
  Uninstall();
  Stop();
}

bool TelemetryLog::Append(const TelemetryRecord& rec) {
  if (rec.kind == static_cast<uint8_t>(RecordKind::kMetric) &&
      options_.metric_sample_every > 1) {
    // Deterministic 1-in-N on arrival order (the bus's own publish
    // sequence would also do; arrival order keeps the sampler uniform
    // across channels).
    uint64_t seen = metric_seen_.fetch_add(1, std::memory_order_relaxed);
    if (seen % options_.metric_sample_every != 0) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Vyukov bounded-queue enqueue: claim a cell whose sequence says
  // "free", publish by bumping it. Wait-free for producers — a full
  // ring refuses immediately instead of spinning on the consumer.
  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  Cell* cell;
  for (;;) {
    cell = &cells_[pos & ring_mask_];
    uint64_t seq = cell->seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        break;
      }
    } else if (dif < 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      m_dropped_->Add(1);
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
  cell->rec = rec;
  cell->enqueue_ns = NowHostNs();
  cell->seq.store(pos + 1, std::memory_order_release);
  appended_.fetch_add(1, std::memory_order_relaxed);
  m_appended_->Add(1);
  return true;
}

void TelemetryLog::Install() {
  SetTelemetrySink(this);
  g_installed.store(this, std::memory_order_release);
  installed_ = true;
  // The section reads through Installed() so a replaced or destroyed log
  // never leaves a dangling capture behind in the flight recorder.
  static bool section_registered = [] {
    RegisterFlightSection("blackbox", [] {
      TelemetryLog* log = TelemetryLog::Installed();
      return log == nullptr ? std::string("null") : log->FlightSectionJson();
    });
    return true;
  }();
  (void)section_registered;
}

void TelemetryLog::Uninstall() {
  if (!installed_) return;
  installed_ = false;
  TelemetryLog* self = this;
  if (g_installed.compare_exchange_strong(self, nullptr)) {
    SetTelemetrySink(nullptr);
  }
}

TelemetryLog* TelemetryLog::Installed() {
  return g_installed.load(std::memory_order_acquire);
}

Status TelemetryLog::OpenSegment() {
  ++segment_seq_;
  std::string path = options_.dir + "/" + SegmentName(segment_seq_);
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) {
    return Status::Unavailable("cannot open segment '" + path + "'");
  }
  std::string header;
  EncodeSegmentHeader(&header);
  if (::write(fd_, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    ::close(fd_);
    fd_ = -1;
    return Status::Unavailable("cannot write segment header to '" + path +
                               "'");
  }
  segment_size_ = header.size();
  segment_records_ = 0;
  live_segments_.push_back(path);
  ++segments_created_;
  while (live_segments_.size() > options_.max_segments) {
    ::unlink(live_segments_.front().c_str());
    live_segments_.pop_front();
  }
  m_segments_->Set(static_cast<double>(live_segments_.size()));
  return Status::OK();
}

Status TelemetryLog::FsyncLocked() {
  if (fd_ < 0) return Status::OK();
  if (::fsync(fd_) != 0) {
    // fsyncgate semantics, as in Wal::FsyncLocked: a failed fsync may
    // have dropped the dirty pages, and retrying cannot bring them back.
    // The durable barrier must not advance, so the log dies here.
    dead_.store(true, std::memory_order_relaxed);
    return Status::IoError("fsync failed on telemetry segment '" +
                           (live_segments_.empty() ? options_.dir
                                                   : live_segments_.back()) +
                           "'");
  }
  ++fsyncs_;
  m_fsyncs_->Add(1);
  durable_ = flushed_;
  bytes_since_fsync_ = 0;
  return Status::OK();
}

void TelemetryLog::SealSegment() {
  if (fd_ < 0) return;
  if (options_.fsync == FsyncPolicy::kRotate) (void)FsyncLocked();
  ::close(fd_);
  fd_ = -1;
}

bool TelemetryLog::WriteFrame(const TelemetryRecord& rec) {
  if (dead_.load(std::memory_order_relaxed)) return false;
  scratch_.clear();
  EncodeFrame(rec, &scratch_);
  if (segment_records_ > 0 &&
      segment_size_ + scratch_.size() > options_.segment_bytes) {
    SealSegment();
    if (dead_.load(std::memory_order_relaxed) || !OpenSegment().ok()) {
      dead_.store(true, std::memory_order_relaxed);
      return false;
    }
  }
  if (write_point_->armed() && write_point_->Decide().crash) {
    // Act the crash out: half a frame on disk, then the flusher dies —
    // exactly the torn tail a kill -9 mid-append leaves behind. The
    // reader must truncate here and keep every frame before it.
    size_t half = scratch_.size() / 2;
    (void)!::write(fd_, scratch_.data(), half);
    dead_.store(true, std::memory_order_relaxed);
    fault::Record(fault::FaultEventKind::kInjected, "obs.blackbox.write",
                  "crash mid-append: torn frame in " +
                      (live_segments_.empty() ? options_.dir
                                              : live_segments_.back()),
                  rec.at_us);
    return false;
  }
  if (::write(fd_, scratch_.data(), scratch_.size()) !=
      static_cast<ssize_t>(scratch_.size())) {
    dead_.store(true, std::memory_order_relaxed);
    return false;
  }
  segment_size_ += scratch_.size();
  ++segment_records_;
  ++flushed_;
  bytes_ += scratch_.size();
  bytes_since_fsync_ += scratch_.size();
  m_bytes_->Add(scratch_.size());
  if (options_.fsync == FsyncPolicy::kInterval &&
      bytes_since_fsync_ >= options_.fsync_interval_bytes) {
    (void)FsyncLocked();
  }
  return true;
}

size_t TelemetryLog::DrainLocked() {
  size_t drained = 0;
  uint64_t oldest_enqueue_ns = 0;
  for (;;) {
    uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell* cell = &cells_[pos & ring_mask_];
    uint64_t seq = cell->seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1) < 0) {
      break;  // ring empty
    }
    TelemetryRecord rec = cell->rec;
    if (oldest_enqueue_ns == 0) oldest_enqueue_ns = cell->enqueue_ns;
    cell->seq.store(pos + options_.ring_capacity,
                    std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    WriteFrame(rec);
    ++drained;
  }
  if (drained > 0 && oldest_enqueue_ns > 0) {
    flush_lag_us_ = static_cast<int64_t>(
        (NowHostNs() - oldest_enqueue_ns) / 1000);
    m_flush_lag_->Set(static_cast<double>(flush_lag_us_));
  }
  m_backlog_->Set(static_cast<double>(
      enqueue_pos_.load(std::memory_order_relaxed) -
      dequeue_pos_.load(std::memory_order_relaxed)));
  return drained;
}

void TelemetryLog::FlusherMain() {
  std::unique_lock<std::mutex> wake(wake_mu_);
  while (!stop_requested_) {
    wake_cv_.wait_for(wake,
                      std::chrono::milliseconds(options_.flush_period_ms));
    if (stop_requested_) break;
    wake.unlock();
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      DrainLocked();
    }
    wake.lock();
  }
}

size_t TelemetryLog::Poll() {
  std::lock_guard<std::mutex> lock(io_mu_);
  return DrainLocked();
}

Status TelemetryLog::Flush() {
  std::lock_guard<std::mutex> lock(io_mu_);
  DrainLocked();
  if (dead_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("blackbox flusher is dead (crash fault)");
  }
  return FsyncLocked();
}

void TelemetryLog::Stop() {
  if (flusher_running_) {
    {
      std::lock_guard<std::mutex> wake(wake_mu_);
      stop_requested_ = true;
    }
    wake_cv_.notify_all();
    flusher_.join();
    flusher_running_ = false;
  }
  (void)Flush();
  std::lock_guard<std::mutex> lock(io_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TelemetryLogStats TelemetryLog::stats() const {
  TelemetryLogStats out;
  out.appended = appended_.load(std::memory_order_relaxed);
  out.dropped = dropped_.load(std::memory_order_relaxed);
  out.sampled_out = sampled_out_.load(std::memory_order_relaxed);
  out.backlog = enqueue_pos_.load(std::memory_order_relaxed) -
                dequeue_pos_.load(std::memory_order_relaxed);
  out.dead = dead_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(io_mu_);
  out.flushed = flushed_;
  out.durable = durable_;
  out.bytes = bytes_;
  out.segments_created = segments_created_;
  out.segments_live = live_segments_.size();
  out.fsyncs = fsyncs_;
  out.flush_lag_us = flush_lag_us_;
  return out;
}

double TelemetryLog::BacklogFraction() const {
  uint64_t backlog = enqueue_pos_.load(std::memory_order_relaxed) -
                     dequeue_pos_.load(std::memory_order_relaxed);
  return static_cast<double>(backlog) /
         static_cast<double>(options_.ring_capacity);
}

std::vector<std::string> TelemetryLog::SegmentPaths() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  return {live_segments_.begin(), live_segments_.end()};
}

std::string TelemetryLog::FlightSectionJson() const {
  TelemetryLogStats s = stats();
  std::string out = "{\"dir\":\"" + JsonEscape(options_.dir) + "\"";
  out += ",\"fsync\":\"" + std::string(FsyncPolicyName(options_.fsync)) +
         "\"";
  out += ",\"appended\":" + std::to_string(s.appended);
  out += ",\"dropped\":" + std::to_string(s.dropped);
  out += ",\"flushed\":" + std::to_string(s.flushed);
  out += ",\"durable\":" + std::to_string(s.durable);
  out += ",\"bytes\":" + std::to_string(s.bytes);
  out += ",\"fsyncs\":" + std::to_string(s.fsyncs);
  out += std::string(",\"dead\":") + (s.dead ? "true" : "false");
  out += ",\"segments\":[";
  bool first = true;
  for (const std::string& path : SegmentPaths()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(path) + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace dbm::obs::blackbox
