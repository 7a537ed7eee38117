// crowd: a closed-loop ClientSwarm of exact sessions sends requests to
// a FrontDoor, which dispatches them in batches over its supervised ORB
// to a PatiaServer. The server's dynamic atom answers each request with
// an index lookup against a paged sensor store. The crowd stays below
// the admission capacity (192 sessions, one request each in flight,
// against a 256-deep queue and no shedding), so nothing is refused: the
// request plane does the host work, the query engine none.
//
// The run is a sequence of epochs. Each epoch builds a fresh simulated
// world (event loop, network, server, front door) the way a crowd meets
// a freshly started server, lets the swarm ramp up and run for kEpoch of
// simulated time, and drains it, so every epoch ends with the drain
// identity checkable.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "cc/checks.h"
#include "cc/workloads.h"
#include "data/relation.h"
#include "net/loadgen.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracectx.h"
#include "patia/frontdoor.h"
#include "patia/patia.h"
#include "storage/btree.h"
#include "storage/buffer.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace perfbench {

namespace {

using namespace dbm;
using data::Schema;
using data::Tuple;
using data::ValueType;

constexpr uint64_t kStoreSensors = 16384;
// 512 frames (2 MiB) hold the store's relation and index pages.
constexpr size_t kStoreFrames = 512;
// Complete set-ups timed per run; setup_s is their median. A set-up is
// ~35 ms, so it takes many to steady the median.
constexpr int kSetupReps = 15;
constexpr uint64_t kSessions = 192;
constexpr SimTime kThink = Millis(100);
constexpr SimTime kRamp = Millis(200);
constexpr SimTime kEpoch = Seconds(2);
constexpr SimTime kWarmEpoch = Millis(300);
constexpr SimTime kDispatch = Millis(1);
constexpr SimTime kServerTick = Millis(50);
const char* const kEdges[] = {"edge1", "edge2", "edge3", "edge4"};
const char* const kNodes[] = {"node1", "node2"};
constexpr const char* kAtom = "sensor";

/// The store's row for sensor s, straight from the generator.
Tuple StoreRow(uint64_t seed, uint64_t s) {
  const uint64_t h = Hash3(seed, 5, s);
  return Tuple({static_cast<int64_t>(s),
                0.25 * static_cast<double>(h % 400) - 20.0,
                0.5 * static_cast<double>((h >> 20) % 200),
                static_cast<int64_t>((h >> 40) % 1000000)});
}

/// The sensor request `id` asks for.
uint64_t RequestSensor(uint64_t seed, uint64_t id) {
  return Hash3(seed, 3, id) % kStoreSensors;
}

std::string FormatBody(const Tuple& t) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "sensor=%lld temp=%.2f battery=%.1f ts=%lld",
                static_cast<long long>(std::get<int64_t>(t.at(0))),
                std::get<double>(t.at(1)), std::get<double>(t.at(2)),
                static_cast<long long>(std::get<int64_t>(t.at(3))));
  return buf;
}

/// The paged sensor store the atom reads: relation plus B+tree index
/// from sensor id to record location, both in one buffer pool.
struct SensorStore {
  std::shared_ptr<TracedDisk> disk;
  std::shared_ptr<storage::BufferManager> buffer;
  std::unique_ptr<storage::PagedRelation> rel;
  std::optional<storage::BPlusTree> index;
};

Result<std::unique_ptr<SensorStore>> BuildStore(uint64_t seed) {
  auto st = std::make_unique<SensorStore>();
  st->disk = std::make_shared<TracedDisk>(
      std::make_shared<storage::DiskComponent>(), storage::kPageSize);
  st->buffer = std::make_shared<storage::BufferManager>("crowd-buf",
                                                        kStoreFrames);
  st->buffer->FindPort("disk")->SetTarget(st->disk);
  st->buffer->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
  const Schema schema({{"sensor", ValueType::kInt},
                       {"temp", ValueType::kDouble},
                       {"battery", ValueType::kDouble},
                       {"ts", ValueType::kInt}});
  DBM_ASSIGN_OR_RETURN(
      st->rel, storage::PagedRelation::Load(data::Relation("sensors", schema),
                                            st->buffer.get(), st->disk.get()));
  DBM_ASSIGN_OR_RETURN(storage::BPlusTree tree,
                       storage::BPlusTree::Create(st->buffer.get(),
                                                  st->disk.get()));
  st->index.emplace(std::move(tree));
  size_t page = 0;
  uint16_t slot = 0;
  for (uint64_t s = 0; s < kStoreSensors; ++s) {
    const size_t pages_before = st->rel->pages();
    DBM_RETURN_NOT_OK(st->rel->Append(StoreRow(seed, s)));
    if (st->rel->pages() != pages_before) {
      page = st->rel->pages() - 1;
      slot = 0;
    } else {
      ++slot;
    }
    DBM_RETURN_NOT_OK(st->index->Insert(static_cast<int64_t>(s),
                                        uint64_t{page} << 16 | slot));
  }
  DBM_RETURN_NOT_OK(st->buffer->FlushAll());
  return st;
}

/// Index lookup + record read for one sensor; the atom's whole work.
std::string LookupBody(SensorStore* st, uint64_t sensor, uint64_t id) {
  Result<std::vector<uint64_t>> found = [&] {
    Span span(kLayerBtree, "BPlusTree::Search", id);
    return st->index->Search(static_cast<int64_t>(sensor));
  }();
  if (!found.ok() || found->size() != 1) return "error: index lookup";
  const uint64_t loc = (*found)[0];
  Result<std::optional<Tuple>> row = [&] {
    Span span(kLayerPaged, "PagedRelation::ReadAt", id);
    return st->rel->ReadAt(static_cast<size_t>(loc >> 16),
                           static_cast<uint16_t>(loc & 0xffff));
  }();
  if (!row.ok() || !row->has_value()) return "error: record read";
  return FormatBody(**row);
}

/// Exact distribution of whole-microsecond simulated times in fixed
/// memory, so the run's footprint does not grow with its length.
class SimHistogram {
 public:
  void Add(SimTime us) {
    const SimTime v = us < 0 ? 0 : us;
    ++counts_[static_cast<size_t>(std::min<SimTime>(v, kCap))];
    sum_ += static_cast<uint64_t>(v);
    ++n_;
  }
  double MeanMs() const {
    return n_ == 0 ? 0 : static_cast<double>(sum_) / static_cast<double>(n_) / 1e3;
  }
  /// Same interpolation as Quantile() over the raw samples (exact below
  /// the cap).
  double QuantileMs(double q) const {
    if (n_ == 0) return 0;
    const double pos = q * static_cast<double>(n_ - 1);
    const uint64_t lo = static_cast<uint64_t>(pos);
    const double a = ValueAt(lo), b = ValueAt(std::min(lo + 1, n_ - 1));
    return (a + (b - a) * (pos - static_cast<double>(lo))) / 1e3;
  }

 private:
  static constexpr SimTime kCap = 1 << 17;  // µs; slower samples share it
  double ValueAt(uint64_t rank) const {
    uint64_t seen = 0;
    for (size_t v = 0; v < counts_.size(); ++v) {
      seen += counts_[v];
      if (seen > rank) return static_cast<double>(v);
    }
    return static_cast<double>(kCap);
  }
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kCap + 1, 0);
  uint64_t sum_ = 0, n_ = 0;
};

/// Everything the crowd measures, summed over epochs.
struct CrowdTally {
  uint64_t issued = 0, completed = 0, served = 0, shed = 0, backpressured = 0;
  uint64_t admitted = 0, batches = 0, net_bytes = 0, bad_bodies = 0;
  uint64_t loop_ns = 0, content_ns = 0;
  SimHistogram sim_latency, queue_wait;
  SampleSet content_us;  // traced run only
  std::vector<std::string> errors;
};

/// Stands between the swarm and the front door: tags each request with
/// an id (the "?r=" query the atom reads) and records its submit time
/// and simulated latency.
class TaggingSink : public net::RequestSink {
 public:
  TaggingSink(patia::FrontDoor* door, EventLoop* loop, uint64_t* next_id,
              CrowdTally* tally)
      : door_(door), loop_(loop), next_id_(next_id), tally_(tally) {}

  Status Submit(uint64_t session, const std::string& client,
                const std::string& resource, DoneFn done) override {
    const uint64_t id = (*next_id_)++;
    submitted_at_.push_back(loop_->Now());
    Span span(kLayerPatia, "FrontDoor::Submit", id);
    return door_->Submit(
        session, client, resource + "?r=" + std::to_string(id),
        [this, done = std::move(done)](const Completion& c) {
          tally_->sim_latency.Add(c.completed_at - c.issued_at);
          done(c);
        });
  }

  /// Simulated submit time of request `id` (ids of this epoch only).
  SimTime SubmittedAt(uint64_t id) const {
    return submitted_at_[id - first_id_];
  }
  void set_first_id(uint64_t id) { first_id_ = id; }

 private:
  patia::FrontDoor* door_;
  EventLoop* loop_;
  uint64_t* next_id_;
  CrowdTally* tally_;
  uint64_t first_id_ = 0;
  std::vector<SimTime> submitted_at_;
};

/// Runs one epoch: fresh world, swarm for `horizon`, drain. Returns the
/// epoch's wall ns.
uint64_t RunEpoch(uint64_t seed, uint64_t epoch, SimTime horizon,
                  SensorStore* store, query::WorkerPool* pool,
                  bool time_content, uint64_t* next_id, CrowdTally* tally) {
  const uint64_t start = NowNs();
  Span op(kLayerBench, "crowd.epoch", epoch);
  // A fresh simulated clock: samples of the previous epoch's clock must
  // not sit in this one's future.
  obs::TimeSeriesStore::Default().ResetAll();

  EventLoop loop;
  net::Network net(&loop);
  adapt::MetricBus bus;
  std::optional<patia::PatiaServer> server;
  std::optional<patia::FrontDoor> door;
  std::optional<TaggingSink> sink;
  {
    Span span(kLayerPatia, "world.build", epoch);
    net.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
    net.AddDevice({"node2", net::DeviceClass::kServer, 1.0, -1, 10, 0});
    for (int i = 0; i < 4; ++i) {
      net.AddDevice({kEdges[i], net::DeviceClass::kLaptop, 0.5, -1, 5.0 + i, 5});
      for (const char* node : kNodes) {
        net.Connect(node, kEdges[i], {500000, Millis(1), "wired"});
      }
    }
    server.emplace(&net, &bus);
    (void)server->AddNode("node1", {8, Millis(2)});
    (void)server->AddNode("node2", {8, Millis(2)});
    patia::Atom atom;
    atom.id = 11;
    atom.name = kAtom;
    atom.type = "text";
    atom.variants = {{kAtom, 64}};
    (void)server->RegisterDynamicAtom(
        atom, {"node1", "node2"},
        [&, store, seed, time_content](const std::string& resource,
                                       SimTime now) -> std::string {
          const uint64_t t0 = time_content ? NowNs() : 0;
          const uint64_t id = std::stoull(resource.substr(resource.find("?r=") + 3));
          std::string body;
          {
            Span span(kLayerPatia, "atom.content", id);
            body = LookupBody(store, RequestSensor(seed, id), id);
          }
          std::string bad =
              CheckBody(body, FormatBody(StoreRow(seed, RequestSensor(seed, id))));
          if (!bad.empty()) {
            ++tally->bad_bodies;
            if (tally->errors.size() < 5) tally->errors.push_back(bad);
          }
          tally->queue_wait.Add(now - sink->SubmittedAt(id));
          if (time_content) {
            const uint64_t ns = NowNs() - t0;
            tally->content_ns += ns;
            tally->content_us.Add(static_cast<double>(ns) / 1e3);
          }
          return body;
        });
    (void)server->AddConstraint(450, 11, "Select BEST(node1.sensor, node2.sensor)");

    patia::FrontDoorOptions fd;
    fd.queue_capacity = 256;
    fd.session_inflight_limit = 4;
    fd.batch_max = 32;
    fd.dispatch_interval = kDispatch;
    fd.service_credit = 48;
    fd.admission_dop = pool->size();
    fd.use_orb = true;
    door.emplace(&*server, &net, &bus, fd, pool);
    // The shedding rules of the flash-crowd front door; below capacity
    // none should fire.
    (void)door->AddShedRule(900,
                            "If derived.admission.depth.mean > 96 and "
                            "admission.shed_level < 50 then SWITCH(shed.0, shed.50)");
    (void)door->AddShedRule(901,
                            "If derived.admission.depth.mean > 192 and "
                            "admission.shed_level < 80 then SWITCH(shed.50, shed.80)");
    (void)door->AddShedRule(902,
                            "If derived.admission.depth.mean < 16 and "
                            "admission.shed_level > 0 then SWITCH(shed.50, shed.0)",
                            /*priority=*/1);
    sink.emplace(&*door, &loop, next_id, tally);
    sink->set_first_id(*next_id);
  }

  // The benchmark drives the front door's dispatch tick and the server's
  // adaptation tick itself (FrontDoor::Tick / PatiaServer::Tick at their
  // usual cadences) so each runs inside a span; both stop once drained.
  bool ticking = true;
  std::function<void()> door_tick = [&] {
    {
      Span span(kLayerPatia, "FrontDoor::Tick", epoch);
      (void)door->Tick();
    }
    if (ticking) loop.ScheduleAfter(kDispatch, door_tick);
  };
  std::function<void()> server_tick = [&] {
    {
      Span span(kLayerAdapt, "PatiaServer::Tick", epoch);
      (void)server->Tick();
    }
    if (ticking) loop.ScheduleAfter(kServerTick, server_tick);
  };
  loop.ScheduleAfter(kDispatch, door_tick);
  loop.ScheduleAfter(kServerTick, server_tick);

  net::ClientSwarm::Options sw;
  sw.sessions = kSessions;
  sw.think_mean = kThink;
  sw.ramp = kRamp;
  sw.horizon = horizon;
  sw.backoff = Millis(25);
  sw.seed = Hash3(seed, 4, epoch);
  net::ClientSwarm swarm(&loop, &*sink, &bus, sw);
  std::vector<std::string> clients(std::begin(kEdges), std::end(kEdges));
  Status started = swarm.Run(clients, kAtom);
  if (!started.ok()) {
    tally->errors.push_back("swarm: " + started.ToString());
    return NowNs() - start;
  }

  const uint64_t loop0 = NowNs();
  {
    Span span(kLayerNet, "EventLoop::RunUntil", epoch);
    loop.RunUntil(horizon);
    while (!loop.empty() && (swarm.active_sessions() > 0 ||
                             door->depth() > 0 || door->outstanding() > 0)) {
      loop.RunUntil(loop.Now() + Millis(10));
    }
    ticking = false;
    loop.RunUntil();
  }
  tally->loop_ns += NowNs() - loop0;

  tally->issued += swarm.issued();
  tally->completed += swarm.completed();
  tally->served += swarm.served();
  tally->shed += swarm.shed();
  tally->backpressured += swarm.backpressured();
  tally->admitted += door->stats().admitted;
  tally->batches += door->stats().batches;
  for (const char* node : kNodes) {
    for (const char* edge : kEdges) {
      Result<net::Link*> link = net.GetLink(node, edge);
      if (link.ok()) tally->net_bytes += (*link)->bytes_carried();
    }
  }
  std::string drain = CheckDrain(swarm.issued(), swarm.completed(),
                                 swarm.served(), swarm.shed(),
                                 swarm.backpressured());
  if (!drain.empty() && tally->errors.size() < 5) {
    tally->errors.push_back("epoch " + std::to_string(epoch) + ": " + drain);
  }
  return NowNs() - start;
}

uint64_t DecisionCount() {
  const obs::Tracer& t = obs::Tracer::Default();
  return t.Decisions().size() + t.dropped_decisions();
}

}  // namespace

RunResult RunCrowd(const Args& args, query::WorkerPool* pool) {
  RunResult result;
  const uint64_t seed = args.seed;

  // Set-up: build and index the sensor store, then one short warm-up
  // epoch (first ORB call, first rule evaluation, first lookups). Timed
  // kSetupReps times; the last store is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<SensorStore> store;
  uint64_t next_id = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<SensorStore>> built = BuildStore(seed);
    if (!built.ok()) {
      result.Fail("crowd set-up: " + built.status().ToString());
      return result;
    }
    store = std::move(*built);
    CrowdTally warm;
    RunEpoch(seed, 0, kWarmEpoch, store.get(), pool, false, &next_id,
             &warm);
    if (!warm.errors.empty() || warm.bad_bodies > 0) {
      result.Fail("crowd warm-up: " +
                  (warm.errors.empty() ? "bad bodies" : warm.errors[0]));
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  ThreadWatch threads;
  threads.Sample();
  obs::Registry& reg = obs::Registry::Default();
  const uint64_t cycles0 = reg.GetCounter("admission.invoke_cycles").value();
  const uint64_t decisions0 = DecisionCount();
  const storage::BufferStats buf0 = store->buffer->stats();
  CrowdTally tally;
  // Per epoch, per served request; cpu_ns over untraced epochs.
  std::vector<double> traced_ns, untraced_ns, cpu_ns;
  uint64_t traced_served = 0;

  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  for (uint64_t epoch = 1;; ++epoch) {
    const bool traced = args.trace && epoch % 2 == 1;
    Tracer::Get().set_enabled(traced);
    const uint64_t served_before = tally.served;
    const double cpu0 = CpuMs();
    const uint64_t ns = RunEpoch(seed, epoch, kEpoch, store.get(), pool,
                                 args.trace, &next_id, &tally);
    const uint64_t served = tally.served - served_before;
    const double per_request =
        1.0 / static_cast<double>(std::max<uint64_t>(served, 1));
    if (traced) traced_served += served;
    (traced ? traced_ns : untraced_ns)
        .push_back(static_cast<double>(ns) * per_request);
    if (!traced) cpu_ns.push_back((CpuMs() - cpu0) * 1e6 * per_request);
    threads.Sample();
    if (NowNs() >= deadline) break;
  }
  Tracer::Get().set_enabled(false);
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const storage::BufferStats buf1 = store->buffer->stats();

  result.attempted = tally.issued;
  result.failed = tally.shed + tally.backpressured +
                  (tally.completed - tally.served) + tally.bad_bodies +
                  (tally.issued - tally.completed - tally.shed -
                   tally.backpressured);
  for (const std::string& e : tally.errors) result.Fail(e);
  CheckThreadBudget(threads, &result);

  const double served = static_cast<double>(std::max<uint64_t>(tally.served, 1));
  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  // Throughput and CPU per request as medians over epochs, so a burst
  // of host interference moves them less than run-long means would.
  e2e.push_back({"ops_per_s", 1e9 / Median(untraced_ns), "1/s"});
  e2e.push_back({"cpu_ms_per_op", Median(cpu_ns) / 1e6, "ms"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // Simulated time ticks in whole microseconds, so the median of ~10^5
  // samples is the same integer on every seed; the mean is not.
  e2e.push_back({"latency_ms", tally.sim_latency.MeanMs(), "ms"});

  result.detail.push_back({"sim_ms_p50", tally.sim_latency.QuantileMs(0.5), "ms"});
  result.detail.push_back({"sim_ms_p99", tally.sim_latency.QuantileMs(0.99), "ms"});
  result.detail.push_back({"served", static_cast<double>(tally.served), "count"});
  result.detail.push_back({"epochs", static_cast<double>(untraced_ns.size() + traced_ns.size()), "count"});
  result.detail.push_back({"ops_per_s_mean", static_cast<double>(tally.served) / wall_s, "1/s"});

  auto& pl = result.per_layer;
  const double gets = static_cast<double>(buf1.gets - buf0.gets);
  SetMetric(&pl, "storage.buffer.gets_per_row", gets / served, "gets/row");
  SetMetric(&pl, "storage.buffer.hit_rate",
            gets > 0 ? static_cast<double>(buf1.hits - buf0.hits) / gets : 0,
            "ratio");
  SetMetric(&pl, "patia.frontdoor.requests_per_batch",
            static_cast<double>(tally.admitted) /
                static_cast<double>(std::max<uint64_t>(tally.batches, 1)),
            "count/batch");
  SetMetric(&pl, "patia.frontdoor.queue_ms_p50", tally.queue_wait.QuantileMs(0.5),
            "ms");
  SetMetric(&pl, "patia.content_us_p50", tally.content_us.Median(), "us");
  SetMetric(&pl, "patia.host_us_per_request",
            static_cast<double>(tally.loop_ns - tally.content_ns) / served /
                1e3,
            "us");
  SetMetric(&pl, "os.orb.cycles_per_request",
            static_cast<double>(
                reg.GetCounter("admission.invoke_cycles").value() - cycles0) /
                static_cast<double>(std::max<uint64_t>(tally.admitted, 1)),
            "cycles");
  SetMetric(&pl, "net.bytes_per_request",
            static_cast<double>(tally.net_bytes) / served, "B");
  SetMetric(&pl, "adapt.decisions",
            static_cast<double>(DecisionCount() - decisions0), "count");
  if (args.trace) {
    AddTraceMetrics(&result, traced_served, Median(traced_ns),
                    Median(untraced_ns));
  }
  return result;
}

}  // namespace perfbench
