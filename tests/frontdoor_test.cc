// Tests for the flash-crowd front door: bounded admission, per-session
// backpressure, rule-driven shedding, batching, chaos, and clean drain.

#include "patia/frontdoor.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "gtest/gtest.h"
#include "net/loadgen.h"
#include "obs/tracectx.h"
#include "patia/patia.h"

namespace dbm::patia {
namespace {

struct ScopedSpec {
  ScopedSpec(const std::string& spec, uint64_t seed) {
    Status s = fault::Injector::Default().Configure(spec, seed);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ScopedSpec() { fault::Injector::Default().Reset(); }
};

/// A small world: two server nodes, two client edges, one two-variant
/// atom, a front door in front. Keeps every test from re-typing it.
struct World {
  explicit World(FrontDoorOptions fd, const std::string& link_kind = "wired")
      : net(&loop), server(&net, &bus) {
    net.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
    net.AddDevice({"node2", net::DeviceClass::kServer, 1.0, -1, 10, 0});
    net.AddDevice({"edge1", net::DeviceClass::kLaptop, 0.5, -1, 5, 5});
    net.AddDevice({"edge2", net::DeviceClass::kLaptop, 0.5, -1, 6, 5});
    net.Connect("node1", "edge1", {20000, Millis(1), link_kind});
    net.Connect("node2", "edge1", {20000, Millis(1), link_kind});
    net.Connect("node1", "edge2", {20000, Millis(1), link_kind});
    net.Connect("node2", "edge2", {20000, Millis(1), link_kind});
    EXPECT_TRUE(server.AddNode("node1", {4, Millis(2)}).ok());
    EXPECT_TRUE(server.AddNode("node2", {4, Millis(2)}).ok());
    Atom page;
    page.id = 7;
    page.name = "Page1.html";
    page.type = "html";
    page.variants = {{"Page1.html", 16000}, {"Page1.small.html", 1600}};
    EXPECT_TRUE(server.RegisterAtom(page, {"node1", "node2"}).ok());
    door = std::make_unique<FrontDoor>(&server, &net, &bus, fd);
  }

  EventLoop loop;
  net::Network net;
  adapt::MetricBus bus;
  PatiaServer server;
  std::unique_ptr<FrontDoor> door;
};

TEST(FrontDoorTest, BoundedDepthRejection) {
  FrontDoorOptions fd;
  fd.queue_capacity = 4;
  fd.session_inflight_limit = 100;
  fd.use_orb = false;
  World w(fd);
  int admitted = 0, refused = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    Status s = w.door->Submit(i, "edge1", "Page1.html", nullptr);
    if (s.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
      ++refused;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(refused, 6);
  EXPECT_EQ(w.door->depth(), 4u);
  EXPECT_EQ(w.door->stats().shed_overflow, 6u);
  EXPECT_EQ(w.door->stats().shed_rule, 0u);
}

TEST(FrontDoorTest, PerSessionBackpressureFairness) {
  FrontDoorOptions fd;
  fd.queue_capacity = 64;
  fd.session_inflight_limit = 2;
  fd.use_orb = false;
  World w(fd);
  // An aggressive session hits its own limit...
  EXPECT_TRUE(w.door->Submit(1, "edge1", "Page1.html", nullptr).ok());
  EXPECT_TRUE(w.door->Submit(1, "edge1", "Page1.html", nullptr).ok());
  Status pushback = w.door->Submit(1, "edge1", "Page1.html", nullptr);
  EXPECT_EQ(pushback.code(), StatusCode::kResourceExhausted);
  // ...without starving a polite one.
  EXPECT_TRUE(w.door->Submit(2, "edge2", "Page1.html", nullptr).ok());
  EXPECT_TRUE(w.door->Submit(2, "edge2", "Page1.html", nullptr).ok());
  EXPECT_EQ(w.door->stats().backpressured, 1u);
  EXPECT_EQ(w.door->stats().admitted, 4u);

  // Completion releases the slot: drain, then session 1 submits again.
  w.door->Start();
  w.loop.RunUntil(Seconds(2));
  EXPECT_EQ(w.door->stats().completed, 4u);
  EXPECT_TRUE(w.door->Submit(1, "edge1", "Page1.html", nullptr).ok());
}

TEST(FrontDoorTest, BatchDispatchServesAndAmortises) {
  FrontDoorOptions fd;
  fd.batch_max = 8;
  fd.session_inflight_limit = 16;
  World w(fd);
  int done_count = 0;
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(w.door
                    ->Submit(i % 3, i % 2 == 0 ? "edge1" : "edge2",
                             "Page1.html",
                             [&done_count](
                                 const net::RequestSink::Completion& c) {
                               EXPECT_TRUE(c.served);
                               EXPECT_GT(c.completed_at, c.issued_at);
                               ++done_count;
                             })
                    .ok());
  }
  w.door->Start();
  w.loop.RunUntil(Seconds(5));
  EXPECT_EQ(done_count, 12);
  EXPECT_EQ(w.door->stats().completed, 12u);
  EXPECT_EQ(w.door->depth(), 0u);
  EXPECT_EQ(w.door->outstanding(), 0u);
  // 12 requests over batch_max=8 → at least 2 batches but far fewer
  // than 12 ORB invocations.
  EXPECT_GE(w.door->stats().batches, 2u);
  EXPECT_LT(w.door->stats().batches, 12u);
}

TEST(FrontDoorTest, DynamicAtomBodyReachesTheClient) {
  FrontDoorOptions fd;
  fd.use_orb = false;
  World w(fd);
  Atom status;
  status.id = 9;
  status.name = "/obs/status";
  status.type = "json";
  status.variants = {{"/obs/status", 0}};
  ASSERT_TRUE(w.server
                  .RegisterDynamicAtom(status, {"node1"},
                                       [](const std::string& resource,
                                          SimTime) {
                                         return "{\"for\":\"" + resource +
                                                "\"}";
                                       })
                  .ok());
  std::vector<std::string> bodies;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.door
                    ->Submit(static_cast<uint64_t>(i), "edge1",
                             "/obs/status?r=" + std::to_string(i),
                             [&bodies](const net::RequestSink::Completion& c) {
                               EXPECT_TRUE(c.served);
                               bodies.push_back(c.body);
                             })
                    .ok());
  }
  // A static atom's completion carries no body.
  std::string static_body = "unset";
  ASSERT_TRUE(w.door
                  ->Submit(7, "edge2", "Page1.html",
                           [&static_body](
                               const net::RequestSink::Completion& c) {
                             static_body = c.body;
                           })
                  .ok());
  w.door->Start();
  w.loop.RunUntil(Seconds(2));
  std::sort(bodies.begin(), bodies.end());
  EXPECT_EQ(bodies, (std::vector<std::string>{
                        "{\"for\":\"/obs/status?r=0\"}",
                        "{\"for\":\"/obs/status?r=1\"}",
                        "{\"for\":\"/obs/status?r=2\"}"}));
  EXPECT_EQ(static_body, "");
}

TEST(FrontDoorTest, ShedRuleFiresRecoversAndRefires) {
  FrontDoorOptions fd;
  fd.queue_capacity = 32;
  fd.session_inflight_limit = 64;
  fd.batch_max = 2;
  fd.service_credit = 4;
  fd.use_orb = false;
  World w(fd);
  ASSERT_TRUE(w.door
                  ->AddShedRule(900,
                                "If derived.admission.depth.mean > 8 and "
                                "admission.shed_level < 50 then "
                                "SWITCH(shed.0, shed.50)")
                  .ok());
  ASSERT_TRUE(w.door
                  ->AddShedRule(902,
                                "If derived.admission.depth.mean < 2 and "
                                "admission.shed_level > 0 then "
                                "SWITCH(shed.50, shed.0)",
                                /*priority=*/1)
                  .ok());
  w.door->Start();

  std::vector<int> observed_levels;
  uint64_t next_session = 0;
  auto flood = [&w, &next_session](SimTime at, int count, SimTime gap) {
    for (int i = 0; i < count; ++i) {
      uint64_t session = next_session++;
      w.loop.ScheduleAt(at + i * gap, [&w, session] {
        (void)w.door->Submit(session, "edge1", "Page1.html", nullptr);
      });
    }
  };
  // Two sustained overload waves with a quiet valley between them: the
  // up-rule must fire in BOTH waves (the down-rule's enactment in the
  // valley invalidates the up-rule's "remedy already in place" memory).
  flood(Millis(10), 2000, Micros(500));  // 10ms .. ~1.01s
  flood(Seconds(2), 2000, Micros(500));  // 2s .. ~3s
  auto probe = [&w, &observed_levels](SimTime at) {
    w.loop.ScheduleAt(at, [&w, &observed_levels] {
      observed_levels.push_back(w.door->shed_level());
    });
  };
  probe(Millis(500));   // during wave 1
  probe(Seconds(1.8));  // valley
  probe(Seconds(2.5));  // during wave 2
  w.loop.RunUntil(Seconds(8));

  ASSERT_EQ(observed_levels.size(), 3u);
  EXPECT_EQ(observed_levels[0], 50) << "up-rule fires in wave 1";
  EXPECT_EQ(observed_levels[1], 0) << "down-rule recovers in the valley";
  EXPECT_EQ(observed_levels[2], 50) << "up-rule re-fires in wave 2";
  EXPECT_GT(w.door->stats().shed_rule, 0u);
  EXPECT_GE(w.door->adaptivity().enacted(), 3u);

  // The firings are on the decision log with the gauge readings that
  // triggered them.
  int frontdoor_decisions = 0;
  for (const obs::DecisionRecord& d : obs::Tracer::Default().Decisions()) {
    if (std::strcmp(d.subject, "frontdoor") == 0) ++frontdoor_decisions;
  }
  EXPECT_GE(frontdoor_decisions, 3);
}

TEST(FrontDoorTest, SheddingUnderChaosStaysAccounted) {
  for (uint64_t seed : {17u, 23u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScopedSpec chaos("net.wireless:flap@3ms", seed);
    FrontDoorOptions fd;
    fd.queue_capacity = 64;
    fd.session_inflight_limit = 4;
    World w(fd, /*link_kind=*/"wireless");
    ASSERT_TRUE(w.door
                    ->AddShedRule(900,
                                  "If derived.admission.depth.mean > 24 and "
                                  "admission.shed_level < 50 then "
                                  "SWITCH(shed.0, shed.50)")
                    .ok());
    w.door->Start();
    net::ClientSwarm::Options sw;
    sw.sessions = 300;
    sw.think_mean = Millis(50);
    sw.ramp = Millis(200);
    sw.horizon = Seconds(3);
    sw.seed = seed;
    net::ClientSwarm swarm(&w.loop, w.door.get(), &w.bus, sw);
    ASSERT_TRUE(swarm.Run({"edge1", "edge2"}, "Page1.html").ok());
    w.loop.RunUntil(Seconds(10));
    w.door->Stop();
    w.loop.RunUntil(Seconds(30));

    // Every submission is accounted for exactly once, flapping links or
    // not: an issue either was refused at the door or reached a done
    // callback.
    EXPECT_GT(swarm.issued(), 0u);
    EXPECT_GT(swarm.completed(), 0u);
    EXPECT_EQ(swarm.issued(),
              swarm.completed() + swarm.shed() + swarm.backpressured());
    const FrontDoor::Stats& st = w.door->stats();
    EXPECT_EQ(st.admitted, st.completed + st.failed);
    EXPECT_EQ(w.door->depth(), 0u);
    EXPECT_EQ(w.door->outstanding(), 0u);
    EXPECT_TRUE(w.door->Drained());
  }
}

TEST(FrontDoorTest, CleanDrainOnShutdown) {
  FrontDoorOptions fd;
  fd.batch_max = 4;
  fd.session_inflight_limit = 32;
  World w(fd);
  int done_count = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(w.door
                    ->Submit(i, "edge1", "Page1.html",
                             [&done_count](
                                 const net::RequestSink::Completion&) {
                               ++done_count;
                             })
                    .ok());
  }
  w.door->Start();
  w.door->Stop();  // stop admitting BEFORE anything dispatched
  EXPECT_EQ(w.door->Submit(99, "edge1", "Page1.html", nullptr).code(),
            StatusCode::kUnavailable);
  w.loop.RunUntil(Seconds(30));

  // Everything admitted before Stop() drains; then the tick stops
  // rescheduling and the simulated world goes quiet (Patia is not
  // ticking in this test, so loop exhaustion is observable).
  EXPECT_EQ(done_count, 20);
  EXPECT_TRUE(w.door->Drained());
  EXPECT_EQ(w.door->stats().shed_stopped, 1u);
  EXPECT_TRUE(w.loop.empty());
}

TEST(FrontDoorTest, SwarmPublishesSessionGauge) {
  FrontDoorOptions fd;
  fd.use_orb = false;
  World w(fd);
  w.door->Start();
  net::ClientSwarm::Options sw;
  sw.sessions = 500000;  // aggregate (open-loop) regime
  sw.open_rate_per_s = 2000;
  sw.ramp = Millis(500);
  sw.horizon = Seconds(2);
  sw.seed = 5;
  net::ClientSwarm swarm(&w.loop, w.door.get(), &w.bus, sw);
  ASSERT_TRUE(swarm.Run({"edge1"}, "Page1.html").ok());
  EXPECT_FALSE(swarm.exact());
  w.loop.RunUntil(Seconds(1));
  auto sessions = w.bus.Get("net.sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_GT(*sessions, 400000.0);  // ramped in by t=1s
  w.loop.RunUntil(Seconds(10));
  EXPECT_GT(swarm.issued(), 1000u);
  EXPECT_EQ(swarm.issued(),
            swarm.completed() + swarm.shed() + swarm.backpressured());
}

}  // namespace
}  // namespace dbm::patia
