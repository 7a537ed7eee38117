// Patia: the adaptive web-data server of §5.2 (Fig 7, Table 2).
//
// Web content is decomposed into Atoms — "the smallest web object that
// cannot be subdivided" — each carried as <a_id, name, type, <constraint>>
// and replicated over nodes. Service agents serve atoms and are *mobile*:
// Table 2's constraint 455 SWITCHes an agent off a node whose processor
// utilisation exceeds 90% (flash crowds), migrating processing state as
// well as data state. Constraint 450 picks the BEST replica per request;
// constraint 595 picks a bandwidth-appropriate variant of a stream.

#ifndef DBM_PATIA_PATIA_H_
#define DBM_PATIA_PATIA_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapt/derived.h"
#include "adapt/session.h"
#include "common/rng.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace dbm::patia {

/// An atom variant: a deliverable rendering of the atom ("videohalf.ram",
/// "videosmall.ram", "Page1.html") with its payload size.
struct AtomVariant {
  std::string resource;
  size_t bytes = 0;
};

/// Atom = <a_id, name, type, <constraint>> (§5.2).
struct Atom {
  int id = 0;
  std::string name;
  std::string type;  // "html" | "graphic" | "stream" | "button" | "text"
  std::vector<AtomVariant> variants;  // first = default rendering

  const AtomVariant* FindVariant(const std::string& resource) const {
    for (const AtomVariant& v : variants) {
      if (v.resource == resource) return &v;
    }
    return nullptr;
  }
};

/// A served request's outcome.
struct ServedRequest {
  int atom_id = 0;
  std::string client;
  std::string served_by;       // node
  std::string resource;        // variant delivered
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  /// Dynamic-atom response body (observatory endpoints). Filled only on
  /// the copy handed to the request's on_done callback (which may move it
  /// out) — never retained in the served-request log.
  std::string body;
  SimTime Latency() const { return completed_at - issued_at; }
};

/// Bounded served-request log: the first `capacity` requests of an epoch
/// are retained, later ones are counted in dropped() — head-keeping, the
/// same overflow discipline as the span/decision rings, so long benches
/// and flash crowds cannot grow memory without limit.
class ServedLog {
 public:
  explicit ServedLog(size_t capacity = 1 << 15) : capacity_(capacity) {}

  void Push(const ServedRequest& r) {
    if (entries_.size() < capacity_) {
      entries_.push_back(r);
    } else {
      ++dropped_;
    }
  }

  std::vector<ServedRequest>::const_iterator begin() const {
    return entries_.begin();
  }
  std::vector<ServedRequest>::const_iterator end() const {
    return entries_.end();
  }
  const ServedRequest& operator[](size_t i) const { return entries_[i]; }
  const ServedRequest& back() const { return entries_.back(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }
  void Clear() {
    entries_.clear();
    dropped_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<ServedRequest> entries_;
  uint64_t dropped_ = 0;
};

/// The mobile service agent: owns the serving of one atom and can migrate
/// between nodes (the SWITCH action saves "not only the data state, but
/// also the processing state").
class ServiceAgent : public component::Component {
 public:
  ServiceAgent(std::string name, int atom_id, std::string home_node)
      : Component(std::move(name), "service-agent"),
        atom_id_(atom_id),
        node_(std::move(home_node)) {}

  int atom_id() const { return atom_id_; }
  const std::string& node() const { return node_; }
  uint64_t served() const { return served_; }
  uint64_t migrations() const { return migrations_; }

  void RecordServe() { ++served_; }
  void MigrateTo(std::string node) {
    node_ = std::move(node);
    ++migrations_;
  }

  bool HasState() const override { return true; }
  Status Checkpoint(component::StateBlob* out) const override {
    out->type = "service-agent";
    out->text = node_;
    out->words = {static_cast<int64_t>(atom_id_),
                  static_cast<int64_t>(served_)};
    return Status::OK();
  }
  Status Restore(const component::StateBlob& blob) override {
    if (blob.type != "service-agent" || blob.words.size() != 2) {
      return Status::InvalidArgument("bad service-agent state blob");
    }
    node_ = blob.text;
    atom_id_ = static_cast<int>(blob.words[0]);
    served_ = static_cast<uint64_t>(blob.words[1]);
    return Status::OK();
  }

 private:
  int atom_id_;
  std::string node_;
  uint64_t served_ = 0;
  uint64_t migrations_ = 0;
};

/// The Patia server: atoms + replicas + agents over the simulated network,
/// driven by the Fig 1 adaptation pipeline.
class PatiaServer {
 public:
  struct NodeOptions {
    /// Requests a node serves concurrently without queueing.
    int service_slots = 4;
    /// Per-request CPU time on the node.
    SimTime service_time = Millis(2);
  };

  struct Stats {
    uint64_t completed = 0;
    uint64_t queued_peak = 0;
    ServedLog log;
    std::map<std::string, uint64_t> served_by_node;
  };

  /// Generates a dynamic atom's response body at serve time. Receives the
  /// requested resource (the atom name plus any "?query" suffix) and the
  /// simulated time of the request.
  using ContentFn = std::function<std::string(const std::string& resource,
                                              SimTime now)>;

  PatiaServer(net::Network* network, adapt::MetricBus* bus);

  /// Declares a serving node (must exist as a network device).
  Status AddNode(const std::string& name, NodeOptions options);

  /// Registers an atom whose replicas live on `nodes` (all of them hold
  /// every variant). A service agent is created on the first node.
  Status RegisterAtom(Atom atom, const std::vector<std::string>& nodes);

  /// Registers an atom whose body is generated per request (observatory
  /// endpoints). The atom needs one variant naming its default resource;
  /// the variant's byte count is ignored — the generated body's size
  /// prices the network transfer. Requests may carry a "?query" suffix
  /// ("/obs/query?q=..."), passed through to `content`.
  Status RegisterDynamicAtom(Atom atom, const std::vector<std::string>& nodes,
                             ContentFn content);

  /// Attaches a Table 2 constraint to an atom by id.
  Status AddConstraint(int constraint_id, int atom_id,
                       std::string_view rule_text, int priority = 0);

  /// Issues a client request for an atom; `on_done` fires at completion
  /// and owns the request it is handed (a dynamic body may be moved out).
  Status Request(const std::string& client, const std::string& atom_name,
                 std::function<void(ServedRequest&&)> on_done = nullptr);

  /// One adaptation tick: sample monitors through gauges, evaluate the
  /// constraint table, enact SWITCHes. Call periodically from the loop.
  Status Tick();

  /// Periodic self-driving: schedules Tick() every `interval`.
  void StartTicking(SimTime interval);

  /// Enables the learned oscillation damper on the session manager (§6:
  /// "systems that learn from previous adaptations").
  void EnableHysteresis(adapt::HysteresisOptions options) {
    session_->EnableHysteresis(options);
  }

  /// Graceful degradation: when the watched breaker metric reports open
  /// or a node is overloaded past the threshold, requests for static
  /// multi-variant atoms are served their *smallest* variant — a
  /// compressed/stale page beats a 503. Sheds are counted on
  /// "patia.degraded" and land in the fault log as kDegraded events.
  struct DegradationOptions {
    /// Bus metric watched for breaker state (e.g. an
    /// "ingest-breaker" gauge published from Orb::BreakerState);
    /// value >= 2 (open) sheds. Empty = overload-only.
    std::string breaker_metric;
    /// NodeUtilisation() at or above this sheds (active/slots; queued
    /// work pushes it past 1.0).
    double overload_utilisation = 1.5;
    /// When > 0: the installed black box's ring occupancy (fraction of
    /// TelemetryLog ring capacity waiting for the flusher) at or above
    /// this also degrades — a flusher that cannot keep up means the
    /// machine is outrunning its own durability, so the server sheds
    /// weight rather than drop history. 0 disables the check.
    double blackbox_backlog_degrade = 0.0;
  };
  void EnableDegradation(DegradationOptions options);

  /// True when the next request on `node` would be served degraded.
  bool Degraded(const std::string& node) const;

  const Stats& stats() const { return stats_; }
  adapt::SessionManager& session() { return *session_; }
  adapt::AdaptivityManager& adaptivity() { return *adaptivity_; }
  /// Derived windowed gauges recomputed on every Tick (trend triggers).
  adapt::DerivedPublisher& derived() { return derived_; }
  Result<ServiceAgent*> AgentFor(int atom_id);
  Result<const Atom*> GetAtom(const std::string& name) const;

  /// Current utilisation of a node (active / slots, may exceed 1).
  double NodeUtilisation(const std::string& node) const;

 private:
  struct NodeState {
    NodeOptions options;
    int active = 0;
    std::deque<std::function<void()>> queue;
  };

  void BeginServe(const std::string& node, std::function<void()> work);
  void FinishServe(const std::string& node);
  void UpdateLoad(const std::string& node);
  Result<std::string> ChooseNode(const Atom& atom,
                                 const std::string& client);
  Result<std::string> ChooseVariant(const Atom& atom,
                                    const std::string& client,
                                    const std::string& node);

  net::Network* network_;
  adapt::MetricBus* bus_;
  adapt::ConstraintTable constraints_;
  std::shared_ptr<adapt::AdaptivityManager> adaptivity_;
  std::shared_ptr<adapt::StateManager> state_;
  std::shared_ptr<adapt::SessionManager> session_;
  std::vector<std::shared_ptr<adapt::Gauge>> gauges_;
  adapt::DerivedPublisher derived_;  // bound to bus_ in the constructor

  std::map<std::string, NodeState> nodes_;
  std::map<int, Atom> atoms_;
  std::map<std::string, int> atoms_by_name_;
  std::map<int, std::vector<std::string>> replicas_;
  std::map<int, std::shared_ptr<ServiceAgent>> agents_;
  std::map<int, std::unique_ptr<net::NetworkScorer>> scorers_;
  std::map<int, ContentFn> dynamic_content_;
  Stats stats_;
  bool ticking_ = false;
  /// "processor-util" republish channel, resolved once (Tick republishes
  /// the serving node's utilisation under the Table-2 name every tick —
  /// that path must not allocate).
  adapt::MetricBus::Channel* processor_util_ch_ = nullptr;
  /// Per-node "<node>.processor-util" channels, resolved at AddNode.
  std::map<std::string, adapt::MetricBus::Channel*> node_util_ch_;

  // Per-atom variant-selection counters ("patia.atom.<name>.variant.<res>"),
  // registered with the atom so serving stays string-free.
  std::map<int, std::map<std::string, obs::Counter*>> variant_counters_;
  obs::Counter* obs_requests_;
  obs::Counter* obs_migrations_;
  obs::Histogram* obs_latency_us_;

  bool degradation_enabled_ = false;
  DegradationOptions degradation_;
  adapt::MetricBus::Channel* degradation_breaker_ch_ = nullptr;
  obs::Counter* obs_degraded_ = nullptr;
};

/// Poisson request generator with a flash-crowd window during which the
/// arrival rate multiplies.
class FlashCrowd {
 public:
  struct Options {
    double base_rate_per_s = 20;
    double flash_multiplier = 15;
    SimTime flash_start = Seconds(2);
    SimTime flash_end = Seconds(6);
    SimTime horizon = Seconds(10);
    uint64_t seed = 1234;
  };

  FlashCrowd(PatiaServer* server, net::Network* network, Options options)
      : server_(server), network_(network), options_(options) {}

  /// Schedules the whole request arrival process for `atom_name`, issued
  /// by `client`.
  Status Run(const std::string& client, const std::string& atom_name);

  uint64_t issued() const { return issued_; }

 private:
  void ScheduleNext(SimTime at, const std::string& client,
                    const std::string& atom_name, Rng* rng);

  PatiaServer* server_;
  net::Network* network_;
  Options options_;
  uint64_t issued_ = 0;
  std::shared_ptr<Rng> rng_;
};

}  // namespace dbm::patia

#endif  // DBM_PATIA_PATIA_H_
