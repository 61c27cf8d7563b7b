#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/failure_injector.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mind {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueueTest, FiresInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(10, [&] { order.push_back(2); });
  q.Schedule(10, [&] { order.push_back(3); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Schedule(10, [&] { ++fired; });
  q.Schedule(20, [&] { ++fired; });
  q.Cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  q.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Schedule(5, [&] { ++fired; });
  q.Run();
  q.Cancel(id);  // must not disturb anything
  q.Schedule(6, [&] { ++fired; });
  q.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilAdvancesClockExactly) {
  EventQueue q;
  int fired = 0;
  q.Schedule(10, [&] { ++fired; });
  q.Schedule(100, [&] { ++fired; });
  size_t n = q.RunUntil(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50u);
  q.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<SimTime> times;
  q.Schedule(10, [&] {
    times.push_back(q.now());
    q.Schedule(5, [&] { times.push_back(q.now()); });
  });
  q.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueueTest, StepFiresOne) {
  EventQueue q;
  int fired = 0;
  q.Schedule(1, [&] { ++fired; });
  q.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, LimitStopsRun) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.Schedule(i + 1, [&] { ++fired; });
  EXPECT_EQ(q.Run(3), 3u);
  EXPECT_EQ(fired, 3);
}

// Timer churn at scale: 100k timers scheduled and almost all cancelled. The
// physical structures (slot array, heap) must stay sized to the peak
// outstanding wave, not grow with the cumulative schedule count — lazy
// cancellation has to compact.
TEST(EventQueueTest, CancelChurn100kDoesNotGrowMemory) {
  EventQueue q;
  uint64_t fired = 0;
  const int kWaves = 1000, kPerWave = 100;  // 100k timers total
  std::vector<EventId> ids;
  for (int w = 0; w < kWaves; ++w) {
    ids.clear();
    for (int i = 0; i < kPerWave; ++i) {
      ids.push_back(q.Schedule(1000 + i, [&fired] { ++fired; }));
    }
    for (int i = 0; i < kPerWave - 5; ++i) q.Cancel(ids[i]);  // 95% cancelled
    q.Run();
  }
  EXPECT_EQ(fired, static_cast<uint64_t>(kWaves) * 5);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_size(), 0u);
  // Peak live per wave is 100; compaction bounds the dead overhang, so the
  // slot array must stay within a small multiple of that.
  EXPECT_LE(q.slot_count(), 4u * kPerWave);
}

// Slot reuse bumps the generation: a stale handle from a fired event must not
// cancel the unrelated event that now occupies the same slot.
TEST(EventQueueTest, StaleCancelOnReusedSlotIsNoop) {
  EventQueue q;
  int a = 0, b = 0;
  EventId id1 = q.Schedule(10, [&a] { ++a; });
  q.Run();
  EventId id2 = q.Schedule(10, [&b] { ++b; });
  EXPECT_NE(id1, id2);
  q.Cancel(id1);  // stale: same slot, older generation
  q.Run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

// ---------------------------------------------------------------- Network

struct TestMsg : Message {
  explicit TestMsg(int v, size_t size = 64) : value(v), bytes(size) {}
  int value;
  size_t bytes;
  size_t SizeBytes() const override { return bytes; }
  const char* TypeName() const override { return "TestMsg"; }
};

class RecordingHost : public Host {
 public:
  struct Delivery {
    NodeId from;
    int value;
    SimTime at;
  };
  std::vector<Delivery> received;
  std::vector<NodeId> failures;
  EventQueue* q = nullptr;

  void HandleMessage(NodeId from, const MessagePtr& msg) override {
    auto* m = dynamic_cast<TestMsg*>(msg.get());
    ASSERT_NE(m, nullptr);
    received.push_back({from, m->value, q->now()});
  }
  void HandleSendFailure(NodeId to, const MessagePtr&) override {
    failures.push_back(to);
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NetworkOptions opts;
    opts.default_latency = FromMillis(10);
    opts.jitter_sigma_ln = 0.0;
    opts.jitter_mu_ln_ms = -100;  // ~0 jitter
    net_ = std::make_unique<Network>(&q_, opts);
    for (auto& h : hosts_) {
      h.q = &q_;
      net_->AddHost(&h);
    }
  }
  EventQueue q_;
  std::unique_ptr<Network> net_;
  RecordingHost hosts_[4];
};

TEST_F(NetworkTest, DeliversWithLatency) {
  net_->Send(0, 1, std::make_shared<TestMsg>(42));
  q_.Run();
  ASSERT_EQ(hosts_[1].received.size(), 1u);
  EXPECT_EQ(hosts_[1].received[0].from, 0);
  EXPECT_EQ(hosts_[1].received[0].value, 42);
  // >= latency (plus transmission), < 2x latency.
  EXPECT_GE(hosts_[1].received[0].at, FromMillis(10));
  EXPECT_LT(hosts_[1].received[0].at, FromMillis(20));
}

TEST_F(NetworkTest, LoopbackIsFast) {
  net_->Send(2, 2, std::make_shared<TestMsg>(1));
  q_.Run();
  ASSERT_EQ(hosts_[2].received.size(), 1u);
  EXPECT_LT(hosts_[2].received[0].at, FromMillis(1));
}

TEST_F(NetworkTest, FifoOrderOnLink) {
  for (int i = 0; i < 5; ++i) net_->Send(0, 1, std::make_shared<TestMsg>(i));
  q_.Run();
  ASSERT_EQ(hosts_[1].received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(hosts_[1].received[i].value, i);
}

TEST_F(NetworkTest, BandwidthQueuesBigMessages) {
  // 2 MiB/s default: a 2 MiB message takes ~1 s to transmit; the second
  // queues behind the first.
  net_->Send(0, 1, std::make_shared<TestMsg>(1, 2 * 1024 * 1024));
  net_->Send(0, 1, std::make_shared<TestMsg>(2, 2 * 1024 * 1024));
  q_.Run();
  ASSERT_EQ(hosts_[1].received.size(), 2u);
  EXPECT_GE(hosts_[1].received[0].at, FromSeconds(1.0));
  EXPECT_GE(hosts_[1].received[1].at, FromSeconds(2.0));
}

TEST_F(NetworkTest, SeparateLinksDoNotQueue) {
  net_->Send(0, 1, std::make_shared<TestMsg>(1, 2 * 1024 * 1024));
  net_->Send(2, 1, std::make_shared<TestMsg>(2, 64));
  q_.Run();
  ASSERT_EQ(hosts_[1].received.size(), 2u);
  // The small message on the independent link is not stuck behind the big one.
  EXPECT_EQ(hosts_[1].received[0].value, 2);
}

TEST_F(NetworkTest, DeadDestinationNotifiesSender) {
  net_->SetNodeUp(1, false);
  net_->Send(0, 1, std::make_shared<TestMsg>(1));
  q_.Run();
  EXPECT_TRUE(hosts_[1].received.empty());
  ASSERT_EQ(hosts_[0].failures.size(), 1u);
  EXPECT_EQ(hosts_[0].failures[0], 1);
}

TEST_F(NetworkTest, DeadSenderSendsNothing) {
  net_->SetNodeUp(0, false);
  net_->Send(0, 1, std::make_shared<TestMsg>(1));
  q_.Run();
  EXPECT_TRUE(hosts_[1].received.empty());
  EXPECT_TRUE(hosts_[0].failures.empty());
}

TEST_F(NetworkTest, DeathInFlightNotifiesSender) {
  net_->Send(0, 1, std::make_shared<TestMsg>(1));
  // Kill node 1 before delivery (latency is 10ms).
  q_.Schedule(FromMillis(1), [&] { net_->SetNodeUp(1, false); });
  q_.Run();
  EXPECT_TRUE(hosts_[1].received.empty());
  EXPECT_EQ(hosts_[0].failures.size(), 1u);
}

TEST_F(NetworkTest, LinkDownNotifiesSenderAndRecovers) {
  net_->SetLinkDown(0, 1, FromSeconds(5));
  EXPECT_FALSE(net_->IsLinkUp(0, 1));
  EXPECT_FALSE(net_->IsLinkUp(1, 0));  // both directions
  net_->Send(0, 1, std::make_shared<TestMsg>(1));
  q_.RunUntil(FromSeconds(6));
  EXPECT_EQ(hosts_[0].failures.size(), 1u);
  EXPECT_TRUE(net_->IsLinkUp(0, 1));
  net_->Send(0, 1, std::make_shared<TestMsg>(2));
  q_.Run();
  ASSERT_EQ(hosts_[1].received.size(), 1u);
  EXPECT_EQ(hosts_[1].received[0].value, 2);
}

TEST_F(NetworkTest, LinkStatsCountTraffic) {
  net_->Send(0, 1, std::make_shared<TestMsg>(1, 100));
  net_->Send(0, 1, std::make_shared<TestMsg>(2, 50));
  q_.Run();
  auto stats = net_->GetLinkStats(0, 1);
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.bytes, 150u);
  EXPECT_EQ(net_->GetLinkStats(1, 0).messages, 0u);
}

TEST_F(NetworkTest, LatencyOverride) {
  net_->SetLatency(0, 1, FromMillis(123));
  EXPECT_EQ(net_->Latency(0, 1), FromMillis(123));
  EXPECT_EQ(net_->Latency(1, 0), FromMillis(123));
  net_->Send(0, 1, std::make_shared<TestMsg>(9));
  q_.Run();
  ASSERT_EQ(hosts_[1].received.size(), 1u);
  EXPECT_GE(hosts_[1].received[0].at, FromMillis(123));
}

TEST_F(NetworkTest, DelayObserverSeesDeliveries) {
  int observed = 0;
  SimTime total = 0;
  net_->SetDelayObserver([&](NodeId, NodeId, SimTime d) {
    ++observed;
    total += d;
  });
  net_->Send(0, 1, std::make_shared<TestMsg>(1));
  q_.Run();
  EXPECT_EQ(observed, 1);
  EXPECT_GE(total, FromMillis(10));
}

// ---------------------------------------------------------------- LinkRow

// A sender's links live in an open-addressed row that doubles at 75% load.
// Random sends from four senders to 47 destinations each cross the 8 -> 16
// -> 32 -> 64 slot rehashes mid-sequence, with links created early still
// sending (and still queued) across every move.
TEST(LinkRowPropertyTest, RandomSendsMatchMapOracleAcrossRehashes) {
  constexpr int kHosts = 48;
  constexpr int kSenders = 4;
  struct Send {
    NodeId from;
    NodeId to;
    SimTime at;
    size_t bytes;
  };
  // Arrival time of every message (by index into `sends`), with only
  // `keep` links' sends replayed when it is non-null.
  auto run = [&](const std::vector<Send>& sends,
                 const std::pair<NodeId, NodeId>* keep,
                 std::map<std::pair<NodeId, NodeId>, Network::LinkStats>*
                     stats) {
    EventQueue q;
    Network net(&q, NetworkOptions{});  // default jitter: send_count matters
    std::vector<RecordingHost> hosts(kHosts);
    for (auto& h : hosts) {
      h.q = &q;
      net.AddHost(&h);
    }
    for (size_t i = 0; i < sends.size(); ++i) {
      const Send& s = sends[i];
      if (keep != nullptr && std::make_pair(s.from, s.to) != *keep) continue;
      q.ScheduleAt(s.at, [&net, s, i] {
        net.Send(s.from, s.to,
                 std::make_shared<TestMsg>(static_cast<int>(i), s.bytes));
      });
    }
    q.Run();
    std::map<int, SimTime> arrivals;
    for (const auto& h : hosts) {
      for (const auto& d : h.received) arrivals[d.value] = d.at;
    }
    if (stats != nullptr) {
      for (NodeId from = 0; from < kHosts; ++from) {
        for (NodeId to = 0; to < kHosts; ++to) {
          (*stats)[{from, to}] = net.GetLinkStats(from, to);
        }
      }
    }
    return arrivals;
  };

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<Send> sends;
    std::map<std::pair<NodeId, NodeId>, Network::LinkStats> oracle;
    SimTime at = 0;
    for (int i = 0; i < 600; ++i) {
      at += rng.Uniform(FromMillis(2));
      Send s;
      s.from = static_cast<NodeId>(rng.Uniform(kSenders));
      s.to = static_cast<NodeId>(rng.Uniform(kHosts - 1));
      if (s.to >= s.from) ++s.to;  // loopback bypasses the link table
      s.at = at;
      // Up to 0.25 s of transmit time at 2 MiB/s: links queue.
      s.bytes = 64 + rng.Uniform(512 * 1024);
      sends.push_back(s);
      Network::LinkStats& o = oracle[{s.from, s.to}];
      ++o.messages;
      o.bytes += s.bytes;
    }
    std::map<std::pair<NodeId, NodeId>, Network::LinkStats> stats;
    const auto arrivals = run(sends, nullptr, &stats);
    ASSERT_EQ(arrivals.size(), sends.size());
    for (const auto& [link, got] : stats) {
      const auto it = oracle.find(link);
      const Network::LinkStats want =
          it != oracle.end() ? it->second : Network::LinkStats{};
      EXPECT_EQ(got.messages, want.messages)
          << "seed " << seed << " link " << link.first << "->" << link.second;
      EXPECT_EQ(got.bytes, want.bytes)
          << "seed " << seed << " link " << link.first << "->" << link.second;
    }
    // A link's arrivals depend only on its own state (queue tail, last
    // arrival, send counter for jitter and ordering keys). Replaying one
    // link alone keeps its row at one entry, so equal arrival times mean
    // every rehash in the full run carried that state over intact.
    for (const auto& [link, want] : oracle) {
      const auto alone = run(sends, &link, nullptr);
      ASSERT_EQ(alone.size(), want.messages);
      for (const auto& [i, t] : alone) {
        EXPECT_EQ(arrivals.at(i), t)
            << "seed " << seed << " link " << link.first << "->"
            << link.second << " message " << i;
      }
    }
  }
}

TEST(GeoTest, GreatCircleSanity) {
  // LA <-> NYC is about 3940 km.
  GeoPoint la{34.05, -118.24};
  GeoPoint nyc{40.71, -74.01};
  double km = GreatCircleKm(la, nyc);
  EXPECT_NEAR(km, 3940, 100);
  EXPECT_NEAR(GreatCircleKm(la, la), 0.0, 1e-6);
  // Propagation delay: ~3940*1.3/200 + 1.5ms overhead ~= 27 ms one way.
  SimTime d = PropagationDelayUs(la, nyc);
  EXPECT_GT(d, FromMillis(20));
  EXPECT_LT(d, FromMillis(40));
}

TEST(GeoTest, PositionedHostsGetGeoLatency) {
  EventQueue q;
  NetworkOptions opts;
  Network net(&q, opts);
  RecordingHost a, b;
  a.q = &q;
  b.q = &q;
  NodeId ia = net.AddHost(&a, GeoPoint{34.05, -118.24});
  NodeId ib = net.AddHost(&b, GeoPoint{40.71, -74.01});
  SimTime lat = net.Latency(ia, ib);
  EXPECT_GT(lat, FromMillis(20));
  EXPECT_LT(lat, FromMillis(40));
}

// ---------------------------------------------------------------- Failures

TEST(FailureInjectorTest, SchedulesLinkFlaps) {
  EventQueue q;
  NetworkOptions nopts;
  Network net(&q, nopts);
  RecordingHost hosts[3];
  for (auto& h : hosts) {
    h.q = &q;
    net.AddHost(&h);
  }
  FailureOptions fopts;
  fopts.link_flaps_per_pair_hour = 30.0;  // high rate for the test
  fopts.mean_flap_duration = FromSeconds(10);
  fopts.seed = 1;
  FailureInjector inj(&q, &net, fopts);
  inj.Start(FromSeconds(3600));
  EXPECT_GT(inj.scheduled_flaps(), 0u);
  q.RunUntil(FromSeconds(3600));
}

TEST(FailureInjectorTest, NodeChurnFiresCallbacksAndRestoresNodes) {
  EventQueue q;
  NetworkOptions nopts;
  Network net(&q, nopts);
  RecordingHost hosts[4];
  for (auto& h : hosts) {
    h.q = &q;
    net.AddHost(&h);
  }
  FailureOptions fopts;
  fopts.node_crashes_per_hour = 20.0;
  fopts.mean_downtime = FromSeconds(30);
  fopts.seed = 2;
  FailureInjector inj(&q, &net, fopts);
  int crashes = 0, revives = 0;
  inj.set_on_crash([&](NodeId) { ++crashes; });
  inj.set_on_revive([&](NodeId) { ++revives; });
  inj.Start(FromSeconds(3600));
  EXPECT_GT(inj.scheduled_crashes(), 0u);
  q.Run();
  EXPECT_GT(crashes, 0);
  EXPECT_EQ(crashes, revives);
  for (NodeId i = 0; i < 4; ++i) EXPECT_TRUE(net.IsNodeUp(i));
}

TEST(FailureInjectorTest, ChurnRestriction) {
  EventQueue q;
  NetworkOptions nopts;
  Network net(&q, nopts);
  RecordingHost hosts[4];
  for (auto& h : hosts) {
    h.q = &q;
    net.AddHost(&h);
  }
  FailureOptions fopts;
  fopts.node_crashes_per_hour = 50.0;
  fopts.seed = 3;
  FailureInjector inj(&q, &net, fopts);
  std::vector<NodeId> crashed;
  inj.set_on_crash([&](NodeId id) { crashed.push_back(id); });
  inj.RestrictChurn(2, 3);
  inj.Start(FromSeconds(3600));
  q.Run();
  for (NodeId id : crashed) EXPECT_GE(id, 2);
}

// ---------------------------------------------------------------- Simulator

TEST(SimulatorTest, OwnsWorldAndRuns) {
  Simulator sim;
  RecordingHost a, b;
  a.q = &sim.events();
  b.q = &sim.events();
  sim.network().AddHost(&a);
  sim.network().AddHost(&b);
  sim.network().Send(0, 1, std::make_shared<TestMsg>(5));
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GT(sim.now(), 0u);
}

TEST(SimulatorTest, RunForAdvancesRelative) {
  Simulator sim;
  sim.RunFor(FromSeconds(10));
  EXPECT_EQ(sim.now(), FromSeconds(10));
  sim.RunFor(FromSeconds(5));
  EXPECT_EQ(sim.now(), FromSeconds(15));
}

TEST(SimulatorTest, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](uint64_t seed) {
    SimulatorOptions opts;
    opts.seed = seed;
    Simulator sim(opts);
    RecordingHost a, b;
    a.q = &sim.events();
    b.q = &sim.events();
    sim.network().AddHost(&a);
    sim.network().AddHost(&b);
    for (int i = 0; i < 10; ++i) sim.network().Send(0, 1, std::make_shared<TestMsg>(i));
    sim.Run();
    std::vector<SimTime> times;
    for (auto& d : b.received) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace mind
