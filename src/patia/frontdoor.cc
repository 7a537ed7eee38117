#include "patia/frontdoor.h"

#include <cstdlib>
#include <utility>

#include "fault/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace dbm::patia {

FrontDoor::FrontDoor(PatiaServer* server, net::Network* network,
                     adapt::MetricBus* bus, FrontDoorOptions options,
                     query::WorkerPool* pool)
    : server_(server),
      network_(network),
      bus_(bus),
      options_(options),
      pool_(pool != nullptr ? pool : &query::WorkerPool::Default()),
      scorer_([this]() -> std::optional<adapt::Target> {
        return adapt::Target{{"shed", std::to_string(shed_level_)}, {}};
      }),
      derived_(bus) {
  adaptivity_ = std::make_shared<adapt::AdaptivityManager>("frontdoor-am");
  session_ = std::make_shared<adapt::SessionManager>("frontdoor-sm", bus_,
                                                     &constraints_);
  session_->FindPort("adaptivity")->SetTarget(adaptivity_);
  session_->SetScorer("frontdoor", &scorer_);
  adaptivity_->RegisterHandler(
      "frontdoor", [this](const adapt::AdaptationRequest& req) -> Status {
        if (!req.decision.chosen.has_value()) {
          return Status::InvalidArgument("decision without a target");
        }
        const adapt::Target& t = *req.decision.chosen;
        if (t.path.size() != 2 || t.path[0] != "shed") {
          return Status::InvalidArgument(
              "front-door targets must be shed.<percent>, got '" +
              t.ToString() + "'");
        }
        char* end = nullptr;
        long level = std::strtol(t.path[1].c_str(), &end, 10);
        if (end == t.path[1].c_str() || *end != '\0' || level < 0 ||
            level > 100) {
          return Status::InvalidArgument("bad shed percentage '" +
                                         t.path[1] + "'");
        }
        SetShedLevel(static_cast<int>(level), req.at);
        return Status::OK();
      });

  depth_ch_ = bus_->GetChannel("admission.depth");
  shed_level_ch_ = bus_->GetChannel("admission.shed_level");
  breaker_ch_ = bus_->GetChannel("frontdoor.breaker");
  obs::Registry& reg = obs::Registry::Default();
  obs_depth_ = &reg.GetGauge("admission.depth");
  obs_shed_level_ = &reg.GetGauge("admission.shed_level");
  obs_shed_ = &reg.GetCounter("admission.shed");
  obs_backpressure_ = &reg.GetCounter("admission.backpressure");
  obs_batches_ = &reg.GetCounter("admission.batches");
  obs_invoke_cycles_ = &reg.GetCounter("admission.invoke_cycles");
  obs_invoke_failures_ = &reg.GetCounter("admission.invoke_failures");
  obs_batch_ = &reg.GetHistogram("admission.batch");
  obs_queue_wait_us_ = &reg.GetHistogram("patia.queue_wait_us");
  obs_latency_us_ = &reg.GetHistogram("frontdoor.request.latency_us");

  // Default trend gauges the shedding rules trigger on: queue-depth
  // mean and peak over a short window, end-to-end latency p99 over a
  // longer one.
  const SimTime w = options_.dispatch_interval * 100;
  derived_.Add({"admission.depth", adapt::DerivedKind::kMean, w});
  derived_.Add({"admission.depth", adapt::DerivedKind::kMax, w});
  {
    adapt::DerivedSpec p99;
    p99.source = "frontdoor.request.latency_us";
    p99.kind = adapt::DerivedKind::kP99;
    p99.window = w * 2;
    p99.from_histogram = true;
    derived_.Add(p99);
  }

  if (options_.use_orb) {
    go_ = std::make_unique<os::GoSystem>(options_.orb_memory_words);
    auto loaded =
        go_->LoadWithService(os::images::NullServer("frontdoor-batch"));
    if (loaded.ok()) {
      batch_iface_ = loaded->second;
      go_->orb().SetCallPolicy(batch_iface_, options_.orb_policy);
      go_->orb().set_now_fn([this] { return network_->loop()->Now(); });
    } else {
      go_.reset();
    }
  }
}

Status FrontDoor::AddShedRule(int id, std::string_view rule_text,
                              int priority) {
  return constraints_.Add(id, "frontdoor", rule_text, priority);
}

void FrontDoor::AddDerived(const adapt::DerivedSpec& spec) {
  derived_.Add(spec);
}

int FrontDoor::BreakerState() const {
  return go_ != nullptr ? go_->orb().BreakerState(batch_iface_) : 0;
}

Status FrontDoor::Submit(uint64_t session, const std::string& client,
                         const std::string& resource, DoneFn done) {
  ++stats_.submitted;
  if (!accepting_) {
    ++stats_.shed_stopped;
    return Status::Unavailable("front door is stopped");
  }
  // Backpressure before shedding: a session at its in-flight limit is
  // told to back off whatever the shed level says — its existing
  // requests are already in the building.
  uint32_t& inflight = inflight_[session];
  if (inflight >= options_.session_inflight_limit) {
    ++stats_.backpressured;
    obs_backpressure_->Add(1);
    return Status::ResourceExhausted("session at in-flight limit");
  }
  // Rule-driven shedding, error-diffused: level 50 refuses exactly
  // every other arrival, not half of them in expectation.
  shed_acc_ += shed_level_;
  if (shed_acc_ >= 100) {
    shed_acc_ -= 100;
    ++stats_.shed_rule;
    obs_shed_->Add(1);
    return Status::Unavailable("shed by front-door rule");
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++stats_.shed_overflow;
    obs_shed_->Add(1);
    return Status::Unavailable("admission queue full");
  }
  ++inflight;
  Pending p;
  p.session = session;
  p.client = client;
  p.resource = resource;
  p.done = std::move(done);
  p.enqueued_at = network_->loop()->Now();
  const obs::TraceContext& ctx = obs::CurrentContext();
  if (ctx.valid()) p.trace = ctx.trace_id;
  queue_.push_back(std::move(p));
  ++stats_.admitted;
  if (queue_.size() > stats_.depth_peak) stats_.depth_peak = queue_.size();
  return Status::OK();
}

void FrontDoor::OnRequestDone(uint64_t session, const RequestTiming& timing,
                              DoneFn done, bool served,
                              SimTime completed_at, std::string body) {
  --outstanding_;
  auto it = inflight_.find(session);
  if (it != inflight_.end() && --it->second == 0) inflight_.erase(it);
  if (served) {
    ++stats_.completed;
  } else {
    ++stats_.failed;
  }
  obs_latency_us_->Record(
      static_cast<uint64_t>(completed_at - timing.enqueued_at));
  // End-to-end attribution: the request's whole latency, split where it
  // was actually spent, joined to traces by trace id.
  obs::RequestProfile prof;
  prof.trace_id = timing.trace;
  prof.at_us = static_cast<int64_t>(timing.enqueued_at);
  prof.queue_us =
      static_cast<uint64_t>(timing.dispatched_at - timing.enqueued_at);
  prof.dispatch_us = timing.dispatch_us;
  prof.exec_us = completed_at > timing.dispatched_at
                     ? static_cast<uint64_t>(completed_at -
                                             timing.dispatched_at)
                     : 0;
  prof.total_us =
      static_cast<uint64_t>(completed_at - timing.enqueued_at);
  prof.served = served;
  prof.SetResource(timing.resource);
  obs::ProfilePlane::Default().RecordRequest(prof);
  if (done) {
    net::RequestSink::Completion c;
    c.served = served;
    c.issued_at = timing.enqueued_at;
    c.completed_at = completed_at;
    c.body = std::move(body);
    done(c);
  }
}

uint64_t FrontDoor::InvokeBatchService() {
  if (go_ == nullptr) return 0;
  const os::Cycles before = go_->ledger().total();
  Status s = go_->orb().Call(batch_iface_);
  const uint64_t spent =
      static_cast<uint64_t>(go_->ledger().total() - before);
  obs_invoke_cycles_->Add(spent);
  if (!s.ok()) {
    // A failed batch invocation is a supervision event, not request
    // loss — the breaker opens, degradation watches it, requests still
    // go to Patia.
    ++stats_.invoke_failures;
    obs_invoke_failures_->Add(1);
  }
  return spent;
}

void FrontDoor::DispatchBatch(SimTime now) {
  size_t credit = options_.service_credit > outstanding_
                      ? options_.service_credit - outstanding_
                      : 0;
  size_t n = queue_.size();
  if (n > options_.batch_max) n = options_.batch_max;
  if (n > credit) n = credit;
  if (n == 0) return;

  std::vector<Pending> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++stats_.batches;
  obs_batches_->Add(1);
  obs_batch_->Record(static_cast<uint64_t>(n));
  // One supervised, cycle-accounted ORB invocation covers the whole
  // batch — the per-call overhead every request would otherwise pay.
  // Each request's dispatch_us is its amortised share of the invocation
  // (cycles → µs at the repo's 1000-cycles-per-µs convention).
  const uint64_t invoke_cycles = InvokeBatchService();
  const uint64_t dispatch_us_share = invoke_cycles / n / 1000;
  // Admission-stage work (routing fingerprints) fans out over the
  // query plane's workers. The histograms are lock-free, so recording
  // queue waits from the slices is safe.
  (void)pool_->ParallelFor(
      batch.size(), options_.admission_dop,
      [this, &batch, now](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          uint64_t h = 1469598103934665603ull;  // FNV-1a
          for (char c : batch[i].client) h = (h ^ (uint8_t)c) * 1099511628211ull;
          for (char c : batch[i].resource) h = (h ^ (uint8_t)c) * 1099511628211ull;
          batch[i].route_hint = h;
          obs_queue_wait_us_->Record(
              static_cast<uint64_t>(now - batch[i].enqueued_at));
        }
        return Status::OK();
      });
  for (Pending& p : batch) {
    ++outstanding_;
    if (outstanding_ > stats_.outstanding_peak) {
      stats_.outstanding_peak = outstanding_;
    }
    const uint64_t session = p.session;
    RequestTiming timing;
    timing.enqueued_at = p.enqueued_at;
    timing.dispatched_at = now;
    timing.dispatch_us = dispatch_us_share;
    timing.trace = p.trace;
    timing.resource = p.resource;
    DoneFn done = std::move(p.done);
    Status s = server_->Request(
        p.client, p.resource,
        [this, session, timing, done](ServedRequest&& served) {
          OnRequestDone(session, timing, done, /*served=*/true,
                        served.completed_at, std::move(served.body));
        });
    if (!s.ok()) {
      OnRequestDone(session, timing, std::move(done),
                    /*served=*/false, now);
    }
  }
}

void FrontDoor::SetShedLevel(int level, SimTime at) {
  if (level == shed_level_) return;
  fault::Record(fault::FaultEventKind::kDegraded, "frontdoor.shed",
                "shed level " + std::to_string(shed_level_) + " -> " +
                    std::to_string(level),
                at);
  shed_level_ = level;
  shed_acc_ = 0;
  bus_->Publish(shed_level_ch_, static_cast<double>(level), at);
  obs_shed_level_->Set(static_cast<double>(level));
}

void FrontDoor::PublishGauges(SimTime now) {
  bus_->Publish(depth_ch_, static_cast<double>(queue_.size()), now);
  obs_depth_->Set(static_cast<double>(queue_.size()));
  bus_->Publish(shed_level_ch_, static_cast<double>(shed_level_), now);
  obs_shed_level_->Set(static_cast<double>(shed_level_));
  bus_->Publish(breaker_ch_, static_cast<double>(BreakerState()), now);
}

Status FrontDoor::Tick() {
  const SimTime now = network_->loop()->Now();
  DispatchBatch(now);
  PublishGauges(now);
  derived_.Tick(now);
  DBM_RETURN_NOT_OK(session_->CheckConstraints(now).status());
  return Status::OK();
}

void FrontDoor::ScheduleTick() {
  network_->loop()->ScheduleAfter(options_.dispatch_interval, [this] {
    (void)Tick();
    if (!accepting_ && queue_.empty() && outstanding_ == 0) {
      // Drained after Stop(): the tick stops rescheduling, so a
      // finished world goes quiet instead of ticking forever.
      ticking_ = false;
      return;
    }
    ScheduleTick();
  });
}

void FrontDoor::Start() {
  if (ticking_) return;
  ticking_ = true;
  ScheduleTick();
}

void FrontDoor::Stop() { accepting_ = false; }

}  // namespace dbm::patia
