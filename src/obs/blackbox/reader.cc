#include "obs/blackbox/reader.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/blackbox/format.h"

namespace dbm::obs::blackbox {

namespace {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open '" + path + "'");
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// The sequence number in "telem-<seq>.seg" (0 when the digits are
/// malformed). Zero-padding to six digits makes names sort as strings
/// only up to segment 999,999; the number is the append order.
uint64_t SegmentSeq(const std::string& name) {
  uint64_t seq = 0;
  for (size_t i = 6; i + 4 < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

}  // namespace

Result<TelemetryReader> TelemetryReader::Open(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("no telemetry directory '" + dir + "'");
  }
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("telem-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".seg") {
      names.push_back(name);
    }
  }
  if (names.empty()) {
    return Status::NotFound("no telemetry segments under '" + dir + "'");
  }
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              uint64_t sa = SegmentSeq(a), sb = SegmentSeq(b);
              return sa != sb ? sa < sb : a < b;
            });

  TelemetryReader reader;
  reader.dir_ = dir;
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    DBM_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
    ++reader.report_.segments_scanned;
    reader.report_.bytes_scanned += bytes.size();
    const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
    if (!CheckSegmentHeader(data, bytes.size())) {
      reader.report_.truncated = true;
      reader.report_.truncated_segment = path;
      reader.report_.truncated_offset = 0;
      break;
    }
    size_t pos = kSegmentHeaderBytes;
    bool torn = false;
    while (pos < bytes.size()) {
      TelemetryRecord rec;
      size_t frame_bytes = 0;
      if (!DecodeFrame(data + pos, bytes.size() - pos, &rec, &frame_bytes)) {
        torn = true;
        reader.report_.truncated = true;
        reader.report_.truncated_segment = path;
        reader.report_.truncated_offset = pos;
        break;
      }
      reader.records_.push_back(rec);
      ++reader.report_.records;
      pos += frame_bytes;
    }
    // The torn-tail rule: a bad checksum ends the history. Anything in a
    // later segment postdates the tear and cannot be trusted to follow
    // a contiguous prefix, so the scan stops entirely.
    if (torn) break;
  }
  return reader;
}

std::vector<TelemetryRecord> TelemetryReader::Between(int64_t from_us,
                                                      int64_t to_us) const {
  std::vector<TelemetryRecord> out;
  for (const TelemetryRecord& rec : records_) {
    if (rec.at_us >= from_us && rec.at_us <= to_us) out.push_back(rec);
  }
  return out;
}

std::map<std::string, double> TelemetryReader::GaugesAsOf(
    int64_t at_us) const {
  std::map<std::string, double> out;
  for (const TelemetryRecord& rec : records_) {
    if (rec.kind != static_cast<uint8_t>(RecordKind::kMetric)) continue;
    if (rec.at_us > at_us) continue;
    out[rec.name] = rec.a;  // append order: the last write at/before wins
  }
  return out;
}

int64_t TelemetryReader::LastAtUs() const {
  int64_t last = 0;
  for (const TelemetryRecord& rec : records_) {
    if (rec.at_us > last) last = rec.at_us;
  }
  return last;
}

}  // namespace dbm::obs::blackbox
