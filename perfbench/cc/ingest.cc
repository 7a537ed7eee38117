// ingest: a single writer appends sensor readings to a WAL-backed paged
// relation on a page file and inserts each into a B+tree sensor index.
// Every group of kGroupRows rows is committed (BufferManager::FlushAll,
// then Wal::Flush, under WalFsyncPolicy::kCommit); between groups, point
// lookups go through the index to recently written rows.
//
// The run is a sequence of rounds. A round opens a fresh store, preloads
// it past its 64-frame pool, writes kRoundGroups groups (the timed
// work), appends half a group it never commits, crashes (drops every
// object without a flush) and restarts from the on-disk files alone,
// which must give back every acknowledged row. Rounds keep the files and
// the index the same size in every run, however fast the host: a store
// that grew with the run would make a faster run write bigger files and
// hold a bigger index.

#include <filesystem>
#include <optional>

#include "cc/checks.h"
#include "cc/workloads.h"
#include "data/relation.h"
#include "storage/btree.h"
#include "storage/buffer.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

using namespace dbm;
using data::Schema;
using data::Tuple;
using data::ValueType;

constexpr uint64_t kSensors = 1024;
constexpr uint64_t kGroupRows = 256;
constexpr uint64_t kLookupsPerGroup = 16;
// Lookups read rows from the last kRecentRows rows written.
constexpr uint64_t kRecentRows = 4 * kGroupRows;
// The relation's pool is 64 frames (256 KiB). The preload alone (~77
// pages) overflows it, and a round writes ~600 pages, ~10x the pool. The
// index's pool (2048 frames, 8 MiB) holds the index's working set: the
// leaves that take each sensor's newest key, plus the inner nodes.
constexpr size_t kFrames = 64;
constexpr size_t kIndexFrames = 2048;
constexpr uint64_t kPreloadRows = 8192;
constexpr uint64_t kRoundGroups = 256;
// Complete set-ups timed per run; setup_s is their median. A set-up is
// ~35 ms and mostly fsyncs, so it takes many to steady the median.
constexpr int kSetupReps = 15;
// A fuzzy checkpoint (and WAL truncation) every this many commits.
constexpr uint64_t kCheckpointEvery = 32;

Schema ReadingSchema() {
  return Schema({{"seq", ValueType::kInt},
                 {"sensor", ValueType::kInt},
                 {"ts", ValueType::kInt},
                 {"temp", ValueType::kDouble}});
}

/// Row i of round `round`'s seeded reading stream, computable on its own.
Tuple Row(uint64_t seed, uint64_t round, uint64_t i) {
  const uint64_t h = Hash3(seed, 1000 + round, i);
  return Tuple({static_cast<int64_t>(i), static_cast<int64_t>(h % kSensors),
                static_cast<int64_t>(i * 100 + (h >> 32) % 100),
                0.25 * static_cast<double>((h >> 16) % 400) - 20.0});
}

/// One round's store: relation, index and their pools.
struct IngestWorld {
  uint64_t seed = 0, round = 0;
  std::string page_path, wal_dir;
  std::shared_ptr<TracedDisk> disk;         // page file
  std::unique_ptr<storage::Wal> wal;
  std::shared_ptr<storage::BufferManager> buffer;
  std::unique_ptr<storage::PagedRelation> rel;
  std::shared_ptr<TracedDisk> index_disk;   // volatile, not logged
  std::shared_ptr<storage::BufferManager> index_buffer;
  std::optional<storage::BPlusTree> index;

  // Writer bookkeeping: rows appended and acknowledged, where the tail
  // row landed, and the index key and location of the last kRecentRows
  // rows (row r at r % kRecentRows).
  uint64_t rows = 0, acked = 0, groups = 0;
  size_t tail_page = 0;
  uint16_t tail_slot = 0;
  std::vector<int64_t> keys = std::vector<int64_t>(kRecentRows);
  std::vector<uint64_t> locs = std::vector<uint64_t>(kRecentRows);
  std::vector<uint32_t> per_sensor = std::vector<uint32_t>(kSensors);

  Tuple RowAt(uint64_t i) const { return Row(seed, round, i); }
};

std::shared_ptr<storage::BufferManager> MakeBuffer(
    const std::string& name, size_t frames, std::shared_ptr<TracedDisk> disk) {
  auto buffer = std::make_shared<storage::BufferManager>(name, frames);
  buffer->FindPort("disk")->SetTarget(std::move(disk));
  buffer->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
  return buffer;
}

Result<std::unique_ptr<IngestWorld>> OpenWorld(const std::string& dir,
                                               uint64_t seed,
                                               uint64_t round) {
  auto w = std::make_unique<IngestWorld>();
  w->seed = seed;
  w->round = round;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  w->page_path = dir + "/readings.dbm";
  w->wal_dir = dir + "/wal";
  DBM_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileDiskComponent> file,
                       storage::FileDiskComponent::Open(w->page_path));
  w->disk = std::make_shared<TracedDisk>(std::move(file),
                                         storage::kPageSlotBytes);
  storage::WalOptions wopt;
  wopt.dir = w->wal_dir;
  wopt.fsync = storage::WalFsyncPolicy::kCommit;
  DBM_ASSIGN_OR_RETURN(w->wal, storage::Wal::Open(wopt));
  w->buffer = MakeBuffer("ingest-buf", kFrames, w->disk);
  w->buffer->SetWal(w->wal.get());
  DBM_ASSIGN_OR_RETURN(
      w->rel, storage::PagedRelation::Load(
                  data::Relation("readings", ReadingSchema()),
                  w->buffer.get(), w->disk.get()));
  // The index is rebuildable from the relation, so it is not logged and
  // lives on a volatile disk: a second growing file would have every WAL
  // fsync (an ext4 ordered-mode journal commit) flush its new blocks too.
  w->index_disk = std::make_shared<TracedDisk>(
      std::make_shared<storage::DiskComponent>(), storage::kPageSize);
  w->index_buffer = MakeBuffer("ingest-index-buf", kIndexFrames,
                               w->index_disk);
  DBM_ASSIGN_OR_RETURN(storage::BPlusTree tree,
                       storage::BPlusTree::Create(w->index_buffer.get(),
                                                  w->index_disk.get()));
  w->index.emplace(std::move(tree));
  return w;
}

/// Per-call latency samples, taken only in the traced run.
struct LayerSamples {
  SampleSet append_us, insert_us, search_us, flush_ms;
};

/// Appends the next row and indexes it under (sensor, per-sensor
/// ordinal) → record location.
Status AppendRow(IngestWorld* w, LayerSamples* samples) {
  const uint64_t i = w->rows;
  const Tuple row = w->RowAt(i);
  const size_t pages_before = w->rel->pages();
  uint64_t t0 = samples != nullptr ? NowNs() : 0;
  {
    Span span(kLayerPaged, "PagedRelation::Append", i);
    DBM_RETURN_NOT_OK(w->rel->Append(row));
  }
  if (samples != nullptr) {
    const uint64_t t1 = NowNs();
    samples->append_us.Add(static_cast<double>(t1 - t0) / 1e3);
    t0 = t1;
  }
  if (w->rel->pages() != pages_before) {
    w->tail_page = w->rel->pages() - 1;
    w->tail_slot = 0;
  } else {
    ++w->tail_slot;
  }
  const uint64_t sensor = static_cast<uint64_t>(std::get<int64_t>(row.at(1)));
  const int64_t key =
      static_cast<int64_t>(sensor << 32 | w->per_sensor[sensor]++);
  const uint64_t loc = static_cast<uint64_t>(w->tail_page) << 16 | w->tail_slot;
  {
    Span span(kLayerBtree, "BPlusTree::Insert", i);
    DBM_RETURN_NOT_OK(w->index->Insert(key, loc));
  }
  if (samples != nullptr) {
    samples->insert_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  w->keys[i % kRecentRows] = key;
  w->locs[i % kRecentRows] = loc;
  ++w->rows;
  return Status::OK();
}

/// Commits every appended row; returns the commit's wall ns.
Result<uint64_t> Commit(IngestWorld* w, LayerSamples* samples) {
  const uint64_t t0 = NowNs();
  {
    Span span(kLayerBuffer, "BufferManager::FlushAll", w->groups);
    DBM_RETURN_NOT_OK(w->buffer->FlushAll());
  }
  const uint64_t t1 = NowNs();
  {
    Span span(kLayerWal, "Wal::Flush", w->groups);
    DBM_RETURN_NOT_OK(w->wal->Flush());
  }
  const uint64_t t2 = NowNs();
  if (samples != nullptr) {
    samples->flush_ms.Add(static_cast<double>(t2 - t1) / 1e6);
  }
  w->acked = w->rows;
  ++w->groups;
  if (w->groups % kCheckpointEvery == 0) {
    Span span(kLayerBuffer, "BufferManager::CheckpointWal", w->groups);
    DBM_RETURN_NOT_OK(w->buffer->CheckpointWal());
  }
  return t2 - t0;
}

/// Looks row `r` up through the index and reads it back. Returns an
/// empty string when the row read equals the generated one.
std::string Lookup(IngestWorld* w, uint64_t r, LayerSamples* samples) {
  const uint64_t t0 = samples != nullptr ? NowNs() : 0;
  Result<std::vector<uint64_t>> found = [&] {
    Span span(kLayerBtree, "BPlusTree::Search", r);
    return w->index->Search(w->keys[r % kRecentRows]);
  }();
  if (samples != nullptr) {
    samples->search_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  if (!found.ok()) return "index search failed: " + found.status().ToString();
  if (found->size() != 1 || (*found)[0] != w->locs[r % kRecentRows]) {
    return "index search for row " + std::to_string(r) + " returned " +
           std::to_string(found->size()) + " entries, not its location";
  }
  const uint64_t loc = (*found)[0];
  Result<std::optional<Tuple>> tuple = [&] {
    Span span(kLayerPaged, "PagedRelation::ReadAt", r);
    return w->rel->ReadAt(static_cast<size_t>(loc >> 16),
                          static_cast<uint16_t>(loc & 0xffff));
  }();
  if (!tuple.ok()) return "read of row " + std::to_string(r) + " failed";
  if (!tuple->has_value() || !(**tuple == w->RowAt(r))) {
    return "row " + std::to_string(r) + " read back wrong";
  }
  return "";
}

/// Opens a round's store and preloads it past its pool.
Result<std::unique_ptr<IngestWorld>> OpenAndPreload(const std::string& dir,
                                                    uint64_t seed,
                                                    uint64_t round) {
  DBM_ASSIGN_OR_RETURN(std::unique_ptr<IngestWorld> w,
                       OpenWorld(dir, seed, round));
  while (w->rows < kPreloadRows) {
    DBM_RETURN_NOT_OK(AppendRow(w.get(), nullptr));
  }
  DBM_RETURN_NOT_OK(Commit(w.get(), nullptr).status());
  return w;
}

/// Drops the store without flushing (a crash: dirty frames are lost),
/// reopens the page file, replays the WAL and checks what survived.
/// `offered` rows were appended, the first `acked` of them acknowledged.
std::string RestartAndCheck(std::unique_ptr<IngestWorld> w) {
  const uint64_t acked = w->acked, offered = w->rows;
  const uint64_t seed = w->seed, round = w->round;
  const std::string page_path = w->page_path, wal_dir = w->wal_dir;
  w.reset();
  Result<std::unique_ptr<storage::FileDiskComponent>> file =
      storage::FileDiskComponent::Open(page_path);
  if (!file.ok()) return "restart: " + file.status().ToString();
  std::shared_ptr<storage::FileDiskComponent> fdisk = std::move(*file);
  Result<storage::RecoveryReport> report =
      storage::Recover(fdisk.get(), wal_dir);
  if (!report.ok()) return "recovery: " + report.status().ToString();
  auto disk = std::make_shared<TracedDisk>(fdisk, storage::kPageSlotBytes);
  auto buffer = MakeBuffer("ingest-restart-buf", kFrames, disk);
  Result<std::unique_ptr<storage::PagedRelation>> rel =
      storage::PagedRelation::Recover("readings", ReadingSchema(),
                                      buffer.get(), disk.get());
  if (!rel.ok()) return "relation recovery: " + rel.status().ToString();
  PrefixCheck check(
      [seed, round](uint64_t i) { return Row(seed, round, i); });
  Status scan = (*rel)->Scan(
      [&check](const Tuple& t) { return check.Visit(t); });
  if (!scan.ok()) return "recovered scan: " + scan.ToString();
  std::string verdict = check.Finish(acked, offered);
  if (!verdict.empty()) return verdict;
  if (check.rows() != (*rel)->rows()) {
    return "recovered relation reports " + std::to_string((*rel)->rows()) +
           " rows but scans " + std::to_string(check.rows());
  }
  Status inv = buffer->CheckInvariants();
  if (!inv.ok()) return "restarted buffer invariants: " + inv.ToString();
  return "";
}

/// What the timed groups did, summed over rounds.
struct IngestTally {
  storage::BufferStats buffer;  // both pools
  storage::WalStats wal;        // appends, bytes, fsyncs
  uint64_t disk_bytes = 0, rows = 0, commits = 0, lookups = 0;
  uint64_t traced_rows = 0;
  // Per group; the *_ns ones per row. cpu_ns counts untraced groups.
  SampleSet write_ms, commit_ms, read_us, traced_ns, untraced_ns, cpu_ns;
};

/// Adds (sign > 0) or subtracts the store's counters, so a subtract
/// before and an add after a stretch of work leaves its deltas.
void AddStats(IngestTally* t, const IngestWorld& w, int sign) {
  const storage::BufferStats a = w.buffer->stats(), b = w.index_buffer->stats();
  const storage::WalStats wal = w.wal->stats();
  auto add = [sign](uint64_t* to, uint64_t v) {
    *to = sign > 0 ? *to + v : *to - v;
  };
  add(&t->buffer.gets, a.gets + b.gets);
  add(&t->buffer.hits, a.hits + b.hits);
  add(&t->buffer.evictions, a.evictions + b.evictions);
  add(&t->buffer.dirty_writebacks, a.dirty_writebacks + b.dirty_writebacks);
  add(&t->wal.appends, wal.appends);
  add(&t->wal.bytes, wal.bytes);
  add(&t->wal.fsyncs, wal.fsyncs);
  add(&t->disk_bytes, w.disk->bytes_written());
}

/// One round's timed groups. Returns false when a group failed to commit
/// (the round's store is then not trusted further).
bool RunGroups(IngestWorld* w, bool trace, uint64_t group_id,
               LayerSamples* sampling, SplitMix* pick, IngestTally* tally,
               RunResult* result) {
  AddStats(tally, *w, -1);
  const uint64_t rows0 = w->acked, commits0 = w->groups;
  bool ok = true;
  for (uint64_t g = 0; g < kRoundGroups; ++g, ++group_id) {
    // A traced run alternates traced and untraced groups, so the tracing
    // overhead is measured in the same process on the same data.
    const bool traced = trace && group_id % 2 == 0;
    Tracer::Get().set_enabled(traced);
    const double cpu0 = CpuMs();
    const uint64_t g0 = NowNs();
    {
      Span op(kLayerBench, "ingest.group", group_id);
      Status s;
      for (uint64_t k = 0; s.ok() && k < kGroupRows; ++k) {
        s = AppendRow(w, sampling);
      }
      Result<uint64_t> commit = s.ok() ? Commit(w, sampling)
                                       : Result<uint64_t>(s);
      result->attempted += kGroupRows;
      if (!commit.ok()) {
        result->failed += kGroupRows;
        result->Fail("ingest commit: " + commit.status().ToString());
        ok = false;
        break;
      }
      tally->write_ms.Add(static_cast<double>(NowNs() - g0) / 1e6);
      tally->commit_ms.Add(static_cast<double>(*commit) / 1e6);
      if (traced) tally->traced_rows += kGroupRows;
      const uint64_t window = std::min(w->rows, kRecentRows);
      for (uint64_t j = 0; j < kLookupsPerGroup; ++j) {
        const uint64_t r = w->rows - 1 - pick->Below(window);
        const uint64_t t0 = NowNs();
        std::string err = Lookup(w, r, sampling);
        tally->read_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
        ++result->attempted;
        ++tally->lookups;
        if (!err.empty()) {
          ++result->failed;
          if (result->errors.size() < 5) result->errors.push_back(err);
        }
      }
    }
    (traced ? tally->traced_ns : tally->untraced_ns)
        .Add(static_cast<double>(NowNs() - g0) / kGroupRows);
    if (!traced) tally->cpu_ns.Add((CpuMs() - cpu0) * 1e6 / kGroupRows);
  }
  Tracer::Get().set_enabled(false);
  tally->rows += w->acked - rows0;
  tally->commits += w->groups - commits0;
  AddStats(tally, *w, +1);
  return ok;
}

}  // namespace

RunResult RunIngest(const Args& args) {
  RunResult result;
  const uint64_t seed = args.seed;
  const std::string dir = args.work_dir + "/ingest";

  // Set-up: what a round pays before its timed groups (fresh files and
  // the preload), plus a warm-up of a few groups and lookups. Timed
  // kSetupReps times.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<IngestWorld>> w = OpenAndPreload(dir, seed, 0);
    Status s = w.status();
    for (int g = 0; s.ok() && g < 4; ++g) {
      for (uint64_t k = 0; s.ok() && k < kGroupRows; ++k) {
        s = AppendRow(w->get(), nullptr);
      }
      if (s.ok()) s = Commit(w->get(), nullptr).status();
      if (s.ok()) {
        std::string err = Lookup(w->get(), (*w)->rows - 1, nullptr);
        if (!err.empty()) s = Status::Internal(err);
      }
    }
    if (!s.ok()) {
      result.Fail("ingest set-up: " + s.ToString());
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  LayerSamples samples;
  LayerSamples* sampling = args.trace ? &samples : nullptr;
  SplitMix pick(Hash3(seed, 2, 0));
  ThreadWatch threads;
  threads.Sample();
  IngestTally tally;
  uint64_t rounds = 0;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  for (uint64_t round = 1;; ++round) {
    Result<std::unique_ptr<IngestWorld>> opened =
        OpenAndPreload(dir, seed, round);
    if (!opened.ok()) {
      result.Fail("ingest round open: " + opened.status().ToString());
      break;
    }
    std::unique_ptr<IngestWorld> w = std::move(*opened);
    const bool ok = RunGroups(w.get(), args.trace, round * kRoundGroups,
                              sampling, &pick, &tally, &result);
    ++rounds;
    threads.Sample();
    if (!ok) break;
    // Structural checks on the live store, then half a group that is
    // never acknowledged, a crash, and the restart.
    Status inv = w->index->CheckInvariants();
    if (inv.ok()) inv = w->buffer->CheckInvariants();
    if (inv.ok()) inv = w->index_buffer->CheckInvariants();
    if (!inv.ok()) result.Fail("ingest invariants: " + inv.ToString());
    for (uint64_t k = 0; inv.ok() && k < kGroupRows / 2; ++k) {
      inv = AppendRow(w.get(), nullptr);
      if (!inv.ok()) result.Fail("unacknowledged append: " + inv.ToString());
    }
    std::string restart = RestartAndCheck(std::move(w));
    if (!restart.empty()) {
      result.Fail("ingest round " + std::to_string(round) +
                  " restart: " + restart);
    }
    if (!result.correct || NowNs() >= deadline) break;
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const double rows = static_cast<double>(std::max<uint64_t>(tally.rows, 1));
  const double commits =
      static_cast<double>(std::max<uint64_t>(tally.commits, 1));
  const double wal_bytes = static_cast<double>(tally.wal.bytes);
  const double disk_bytes = static_cast<double>(tally.disk_bytes);

  CheckThreadBudget(threads, &result);

  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  // Throughput and CPU per row as medians over groups (append, commit,
  // lookups), so a burst of slow fsyncs moves them less than run-long
  // means would.
  e2e.push_back({"ops_per_s", 1e9 / tally.untraced_ns.Median(), "1/s"});
  e2e.push_back({"cpu_ms_per_op", tally.cpu_ns.Median() / 1e6, "ms"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // The batch writer's latency: from a group's first append to its
  // commit's acknowledgement (the bare commit is commit_ms_p50).
  e2e.push_back({"latency_ms", tally.write_ms.Median(), "ms"});

  result.detail.push_back(
      {"ops_per_s_mean", static_cast<double>(tally.rows) / wall_s, "1/s"});
  result.detail.push_back({"commit_ms_p50", tally.commit_ms.Median(), "ms"});
  result.detail.push_back(
      {"commit_ms_p90", tally.commit_ms.Quantile(0.9), "ms"});
  result.detail.push_back({"read_us_p50", tally.read_us.Median(), "us"});
  result.detail.push_back({"read_us_p90", tally.read_us.Quantile(0.9), "us"});
  result.detail.push_back(
      {"write_bytes_per_row", (wal_bytes + disk_bytes) / rows, "B"});
  result.detail.push_back({"rounds", static_cast<double>(rounds), "count"});
  result.detail.push_back(
      {"groups", static_cast<double>(tally.commits), "count"});

  auto& pl = result.per_layer;
  const double touched = rows + static_cast<double>(tally.lookups);
  const double gets = static_cast<double>(tally.buffer.gets);
  SetMetric(&pl, "storage.buffer.gets_per_row", gets / touched, "gets/row");
  SetMetric(&pl, "storage.buffer.hit_rate",
            gets > 0 ? static_cast<double>(tally.buffer.hits) / gets : 0,
            "ratio");
  SetMetric(&pl, "storage.buffer.evictions_per_krow",
            static_cast<double>(tally.buffer.evictions) / touched * 1e3,
            "count/krow");
  SetMetric(&pl, "storage.buffer.writebacks_per_commit",
            static_cast<double>(tally.buffer.dirty_writebacks) / commits,
            "count/commit");
  SetMetric(&pl, "storage.wal.bytes_per_row", wal_bytes / rows, "B/row");
  SetMetric(&pl, "storage.wal.appends_per_commit",
            static_cast<double>(tally.wal.appends) / commits, "count/commit");
  SetMetric(&pl, "storage.wal.fsyncs_per_commit",
            static_cast<double>(tally.wal.fsyncs) / commits, "count/commit");
  SetMetric(&pl, "storage.wal.flush_ms_p50", samples.flush_ms.Median(), "ms");
  SetMetric(&pl, "storage.disk.bytes_per_row", disk_bytes / rows, "B/row");
  SetMetric(&pl, "storage.btree.insert_us_p50", samples.insert_us.Median(),
            "us");
  SetMetric(&pl, "storage.btree.search_us_p50", samples.search_us.Median(),
            "us");
  SetMetric(&pl, "storage.paged.append_us_p50", samples.append_us.Median(),
            "us");
  if (args.trace) {
    AddTraceMetrics(&result, tally.traced_rows, tally.traced_ns.Median(),
                    tally.untraced_ns.Median());
  }
  return result;
}

}  // namespace perfbench
