// Client-session load generation: the flash crowd itself.
//
// Patia's vignette (§5.2) is "a webserver surviving flash crowds", which
// needs crowds — thousands to millions of client sessions arriving over
// the simulated network, not one Poisson source driven from a bench loop
// (that is what patia::FlashCrowd already does). The ClientSwarm models
// each session explicitly while the population is small enough to matter
// individually (closed loop: issue → wait → think, with backoff when the
// front door pushes back), and switches to an aggregate open-loop
// arrival process above that — a million clients are indistinguishable
// from their arrival rate, but a thousand waiting clients are a thousand
// state machines whose think times decorrelate.
//
// The swarm submits through a RequestSink rather than PatiaServer
// directly, so the admission plane (patia/frontdoor.h) can sit in
// between and the generator stays ignorant of what it is overloading.

#ifndef DBM_NET_LOADGEN_H_
#define DBM_NET_LOADGEN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapt/metrics.h"
#include "common/event_loop.h"
#include "common/result.h"
#include "common/rng.h"

namespace dbm::net {

/// Where a swarm's requests go: an admission queue, or a bare server in
/// tests. Submit()'s status is the admission verdict, delivered
/// synchronously so the session can react (backoff, count a shed):
///
///   OK                 — admitted; `done` fires exactly once, later.
///   ResourceExhausted  — per-session backpressure; retry after backoff.
///   anything else      — shed/refused; the request is gone, `done`
///                        never fires.
class RequestSink {
 public:
  virtual ~RequestSink() = default;

  struct Completion {
    bool served = false;  // false: admitted but failed downstream
    SimTime issued_at = 0;
    SimTime completed_at = 0;
    std::string body;  // a dynamic atom's response (empty otherwise)
  };
  using DoneFn = std::function<void(const Completion&)>;

  virtual Status Submit(uint64_t session, const std::string& client,
                        const std::string& resource, DoneFn done) = 0;
};

/// An open/closed-loop population of client sessions.
class ClientSwarm {
 public:
  struct Options {
    /// Session population. Sessions above `max_exact_sessions` are
    /// modelled in aggregate (open loop).
    uint64_t sessions = 1000;
    /// Mean think time between a session's completion and its next
    /// request (closed loop); also sets the aggregate rate, which is
    /// sessions / think_mean unless open_rate_per_s overrides it.
    SimTime think_mean = Millis(200);
    /// Aggregate arrival rate for the open-loop regime; 0 = derive from
    /// sessions and think_mean.
    double open_rate_per_s = 0;
    /// Sessions ramp in linearly over this long (a crowd gathers, it
    /// does not teleport).
    SimTime ramp = Seconds(1);
    /// No new requests are issued after this time; in-flight ones drain.
    SimTime horizon = Seconds(10);
    /// Base retry delay after backpressure (uniformly jittered ×[1,2)).
    SimTime backoff = Millis(50);
    uint64_t seed = 1;
    /// Largest population simulated as individual state machines.
    uint64_t max_exact_sessions = 1 << 16;
  };

  ClientSwarm(EventLoop* loop, RequestSink* sink, adapt::MetricBus* bus,
              Options options);

  /// Starts the whole population: session i issues from clients[i % n]
  /// and always asks for `resource`. Call once.
  Status Run(std::vector<std::string> clients, std::string resource);

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  /// Completions with served == true.
  uint64_t served() const { return served_; }
  uint64_t shed() const { return shed_; }
  uint64_t backpressured() const { return backpressured_; }
  uint64_t retries() const { return retries_; }
  uint64_t active_sessions() const { return active_sessions_; }
  bool exact() const { return exact_; }

 private:
  void StartSession(uint64_t session, SimTime first_issue);
  void Issue(uint64_t session);
  void Think(uint64_t session);
  void ScheduleOpenArrival();
  void PublishSessions(double value);
  const std::string& ClientFor(uint64_t session) const {
    return clients_[session % clients_.size()];
  }

  EventLoop* loop_;
  RequestSink* sink_;
  adapt::MetricBus* bus_;
  Options options_;
  Rng rng_;
  bool exact_ = true;

  std::vector<std::string> clients_;
  std::string resource_;

  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t served_ = 0;
  uint64_t shed_ = 0;
  uint64_t backpressured_ = 0;
  uint64_t retries_ = 0;
  uint64_t active_sessions_ = 0;

  adapt::MetricBus::Channel* sessions_ch_ = nullptr;  // "net.sessions"
  obs::Gauge* obs_sessions_ = nullptr;
  obs::Counter* obs_issued_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_shed_ = nullptr;
  obs::Counter* obs_backpressured_ = nullptr;
  obs::Counter* obs_retries_ = nullptr;
};

}  // namespace dbm::net

#endif  // DBM_NET_LOADGEN_H_
