// The flash-crowd front door: Patia's bounded, batching admission plane.
//
// PatiaServer::Request is an open invitation — every accepted request
// lands in an unbounded per-node queue, which under a flash crowd is the
// collapse mode (latency grows without limit while throughput stays
// flat). The front door closes the invitation: a bounded admission queue
// is the ONLY place requests wait, and everything past its limits is
// refused at the door, cheaply, before it can cost anything downstream.
// The shape follows rippled's TaskQueue (bounded queue + worker pool +
// refuse-over-limit), adapted to the simulated request plane.
//
// Four mechanisms, in request order:
//
//   backpressure  — at most session_inflight_limit admitted requests per
//                   client session; the (closed-loop) session is told to
//                   back off, which is what actually flattens a crowd.
//   shedding      — a shed level in [0,100] drops that percentage of
//                   arrivals (deterministic error-diffusion, not a coin
//                   flip). The level is NOT set by code: Table-2 rules
//                   over derived.* trend gauges decide it through the
//                   same session/adaptivity managers as every other
//                   adaptation in the repo (AddShedRule).
//   bounded queue — queue_capacity caps waiting requests; overflow is
//                   refused (counted separately from rule-driven sheds).
//   batching      — a periodic tick drains up to batch_max requests,
//                   amortising one supervised ORB invocation over the
//                   whole batch and fanning admission work over the
//                   query WorkerPool. service_credit caps
//                   dispatched-but-incomplete requests so Patia's
//                   internal queues stay near-empty and the bounded
//                   queue stays the only queue.
//
// The overload path reuses the PR-4 supervision machinery: the batch
// invocation runs under a CallPolicy (deadline, retries, breaker), and
// the breaker state is published on the bus ("frontdoor.breaker") where
// PatiaServer::EnableDegradation can watch it.

#ifndef DBM_PATIA_FRONTDOOR_H_
#define DBM_PATIA_FRONTDOOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "adapt/derived.h"
#include "adapt/session.h"
#include "net/loadgen.h"
#include "obs/tracectx.h"
#include "os/go_system.h"
#include "patia/patia.h"
#include "query/pool.h"

namespace dbm::patia {

struct FrontDoorOptions {
  /// Waiting requests the admission queue holds; arrivals past this are
  /// refused (Unavailable).
  size_t queue_capacity = 256;
  /// Admitted-but-incomplete requests one session may have; past this
  /// the session is pushed back (ResourceExhausted).
  uint32_t session_inflight_limit = 8;
  /// Requests drained per dispatch tick, sharing one ORB invocation.
  size_t batch_max = 32;
  SimTime dispatch_interval = Millis(1);
  /// Dispatched-but-incomplete requests across all sessions; dispatch
  /// stops at this credit so Patia's internal queues stay bounded too.
  size_t service_credit = 64;
  /// WorkerPool width for the per-batch admission stage.
  size_t admission_dop = 4;
  /// Run the per-batch supervised ORB invocation (cycle-accounted).
  bool use_orb = true;
  /// Memory for the batch-service component's GoSystem.
  size_t orb_memory_words = 1 << 16;
  /// Supervision for the batch invocation; breaker state is published
  /// as the "frontdoor.breaker" bus metric.
  os::CallPolicy orb_policy;
};

class FrontDoor : public net::RequestSink {
 public:
  /// `pool` may be null: the process-wide WorkerPool::Default() is used.
  FrontDoor(PatiaServer* server, net::Network* network,
            adapt::MetricBus* bus, FrontDoorOptions options,
            query::WorkerPool* pool = nullptr);

  /// The admission verdict (see RequestSink). OK admits into the queue;
  /// `done` fires exactly once when Patia finishes (or fails) the
  /// request. Refusals never fire `done`.
  Status Submit(uint64_t session, const std::string& client,
                const std::string& resource, DoneFn done) override;

  /// Starts the periodic dispatch/adaptation tick.
  void Start();
  /// Stops admitting; dispatch keeps running until the queue and all
  /// outstanding requests drain, then the tick stops rescheduling.
  void Stop();
  /// One dispatch + gauge-publish + derived + constraint-check cycle.
  /// Start() calls this every dispatch_interval; tests may drive it
  /// directly.
  Status Tick();

  /// Attaches a Table-2 shedding rule for subject "frontdoor". Targets
  /// must be "shed.<percent>"; when the rule fires, the chosen target's
  /// percentage becomes the shed level, e.g.
  ///   If derived.admission.depth.mean > 96 and admission.shed_level < 50
  ///     then SWITCH(shed.0, shed.50)
  Status AddShedRule(int id, std::string_view rule_text, int priority = 0);

  /// Registers an extra derived trend gauge recomputed each Tick (the
  /// constructor installs depth mean/max and latency p99 by default).
  void AddDerived(const adapt::DerivedSpec& spec);

  struct Stats {
    uint64_t submitted = 0;      // every Submit call
    uint64_t admitted = 0;       // entered the queue
    uint64_t completed = 0;      // done fired, served
    uint64_t failed = 0;         // done fired, not served
    uint64_t shed_rule = 0;      // refused by the shed level
    uint64_t shed_overflow = 0;  // refused by a full queue
    uint64_t shed_stopped = 0;   // refused after Stop()
    uint64_t backpressured = 0;  // refused by the per-session limit
    uint64_t batches = 0;
    uint64_t invoke_failures = 0;  // batch ORB invocations that failed
    uint64_t depth_peak = 0;
    uint64_t outstanding_peak = 0;
  };

  const Stats& stats() const { return stats_; }
  size_t depth() const { return queue_.size(); }
  size_t outstanding() const { return outstanding_; }
  int shed_level() const { return shed_level_; }
  bool accepting() const { return accepting_; }
  /// True once Stop() has been called and nothing is queued or in
  /// flight.
  bool Drained() const {
    return !accepting_ && queue_.empty() && outstanding_ == 0;
  }
  int BreakerState() const;
  adapt::SessionManager& session() { return *session_; }
  adapt::AdaptivityManager& adaptivity() { return *adaptivity_; }

 private:
  struct Pending {
    uint64_t session = 0;
    std::string client;
    std::string resource;
    DoneFn done;
    SimTime enqueued_at = 0;
    uint64_t route_hint = 0;  // batch-stage fingerprint (WorkerPool)
    obs::TraceId trace;  // enclosing trace at Submit (invalid if unsampled)
  };

  /// End-to-end attribution for one finished request, threaded from
  /// admission through dispatch to completion and recorded as an
  /// obs::RequestProfile (queue / dispatch / exec split by trace id).
  struct RequestTiming {
    SimTime enqueued_at = 0;
    SimTime dispatched_at = 0;
    uint64_t dispatch_us = 0;  // amortised batch-ORB share
    obs::TraceId trace;
    std::string resource;
  };

  void DispatchBatch(SimTime now);
  /// Returns the invocation's cycle cost (0 when the ORB is absent).
  uint64_t InvokeBatchService();
  void OnRequestDone(uint64_t session, const RequestTiming& timing,
                     DoneFn done, bool served, SimTime completed_at,
                     std::string body = {});
  void SetShedLevel(int level, SimTime at);
  void PublishGauges(SimTime now);
  void ScheduleTick();

  PatiaServer* server_;
  net::Network* network_;
  adapt::MetricBus* bus_;
  FrontDoorOptions options_;
  query::WorkerPool* pool_;

  std::deque<Pending> queue_;
  std::unordered_map<uint64_t, uint32_t> inflight_;  // session → admitted
  size_t outstanding_ = 0;  // dispatched, completion pending
  bool accepting_ = true;
  bool ticking_ = false;
  int shed_level_ = 0;
  int shed_acc_ = 0;  // error-diffusion accumulator for the shed level
  Stats stats_;

  // Fig-1 machinery for the "frontdoor" subject.
  adapt::ConstraintTable constraints_;
  std::shared_ptr<adapt::AdaptivityManager> adaptivity_;
  std::shared_ptr<adapt::SessionManager> session_;
  adapt::NumericTargetScorer scorer_;
  adapt::DerivedPublisher derived_;

  // Batch service substrate (one supervised call per batch).
  std::unique_ptr<os::GoSystem> go_;
  os::InterfaceId batch_iface_ = 0;

  adapt::MetricBus::Channel* depth_ch_ = nullptr;       // admission.depth
  adapt::MetricBus::Channel* shed_level_ch_ = nullptr;  // admission.shed_level
  adapt::MetricBus::Channel* breaker_ch_ = nullptr;     // frontdoor.breaker
  obs::Gauge* obs_depth_ = nullptr;
  obs::Gauge* obs_shed_level_ = nullptr;
  obs::Counter* obs_shed_ = nullptr;
  obs::Counter* obs_backpressure_ = nullptr;
  obs::Counter* obs_batches_ = nullptr;
  obs::Counter* obs_invoke_cycles_ = nullptr;
  obs::Counter* obs_invoke_failures_ = nullptr;
  obs::Histogram* obs_batch_ = nullptr;
  obs::Histogram* obs_queue_wait_us_ = nullptr;
  obs::Histogram* obs_latency_us_ = nullptr;
};

}  // namespace dbm::patia

#endif  // DBM_PATIA_FRONTDOOR_H_
