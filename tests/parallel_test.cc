// Tests for the sharded parallel engine and the delivery discipline it shares
// with the sequential engine:
// counter-based RNG streams, keyed event ordering, the dense link table,
// planned outages, sharded telemetry, and — the core property — bit-identical
// state digests across the sequential engine and every worker thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mind/mind_net.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/parallel_engine.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace mind {
namespace {

// ------------------------------------------------------------- counter RNG

TEST(CounterRngTest, PureFunctionOfInputs) {
  EXPECT_EQ(CounterMix(1, 2, 3), CounterMix(1, 2, 3));
  EXPECT_DOUBLE_EQ(CounterUniformDouble(7, 8, 9), CounterUniformDouble(7, 8, 9));
  EXPECT_DOUBLE_EQ(CounterLogNormal(7, 8, 9, -0.7, 1.0),
                   CounterLogNormal(7, 8, 9, -0.7, 1.0));
}

TEST(CounterRngTest, DistinctInputsDecorrelate) {
  std::set<uint64_t> seen;
  for (uint64_t c = 0; c < 4096; ++c) seen.insert(CounterMix(42, 7, c));
  EXPECT_EQ(seen.size(), 4096u);  // no collisions across counters
  EXPECT_NE(CounterMix(1, 2, 3), CounterMix(2, 2, 3));
  EXPECT_NE(CounterMix(1, 2, 3), CounterMix(1, 3, 3));
}

TEST(CounterRngTest, UniformLiesInUnitInterval) {
  for (uint64_t c = 0; c < 1000; ++c) {
    double u = CounterUniformDouble(0x5eed, 1, c);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(CounterRngTest, LogNormalMatchesParameters) {
  const double mu = -0.7, sigma = 1.0;
  const int n = 20000;
  double sum = 0, sum2 = 0;
  for (int c = 0; c < n; ++c) {
    double v = CounterLogNormal(0x5eed, 99, c, mu, sigma);
    ASSERT_GT(v, 0.0);
    double l = std::log(v);
    sum += l;
    sum2 += l * l;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, mu, 0.05);
  EXPECT_NEAR(std::sqrt(var), sigma, 0.05);
}

// ---------------------------------------------------------- keyed ordering

TEST(KeyedEventQueueTest, SameTimestampOrdersByBandThenUkey) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAtKeyed(100, 2, 0, [&] { order.push_back(4); });
  q.ScheduleAtKeyed(100, 1, 7, [&] { order.push_back(3); });
  q.ScheduleAt(100, [&] { order.push_back(1); });  // band 0
  q.ScheduleAtKeyed(100, 1, 2, [&] { order.push_back(2); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(KeyedEventQueueTest, InsertionOrderIsFinalTieBreaker) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAtKeyed(10, 1, 5, [&] { order.push_back(1); });
  q.ScheduleAtKeyed(10, 1, 5, [&] { order.push_back(2); });
  q.ScheduleAtKeyed(10, 1, 5, [&] { order.push_back(3); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(KeyedEventQueueTest, RunUntilBeforeIsHalfOpen) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(20, [&] { ++fired; });
  EXPECT_EQ(q.RunUntilBefore(20), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 10u);  // clock stays at the last fired event
  q.AdvanceTo(20);
  EXPECT_EQ(q.now(), 20u);
  EXPECT_EQ(q.RunUntilBefore(21), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(KeyedEventQueueTest, CollectKeyedReportsLiveTriples) {
  EventQueue q;
  q.ScheduleAtKeyed(5, 1, 77, [] {});
  EventId dead = q.ScheduleAtKeyed(6, 2, 88, [] {});
  q.Cancel(dead);
  std::vector<std::array<uint64_t, 3>> keys;
  q.CollectKeyed(&keys);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (std::array<uint64_t, 3>{5, 1, 77}));
}

// ------------------------------------------------- network (dense links etc.)

struct PingMsg : Message {
  const char* TypeName() const override { return "ping"; }
};

struct TestHost : Host {
  std::vector<NodeId> delivered_from;
  std::vector<NodeId> failed_to;
  void HandleMessage(NodeId from, const MessagePtr&) override {
    delivered_from.push_back(from);
  }
  void HandleSendFailure(NodeId to, const MessagePtr&) override {
    failed_to.push_back(to);
  }
};

TEST(NetworkTest, DenseLinkStatsCountPerDirection) {
  Simulator sim;
  TestHost a, b;
  NodeId ia = sim.network().AddHost(&a);
  NodeId ib = sim.network().AddHost(&b);
  for (int i = 0; i < 3; ++i) sim.network().Send(ia, ib, std::make_shared<PingMsg>());
  sim.network().Send(ib, ia, std::make_shared<PingMsg>());
  sim.Run();
  EXPECT_EQ(sim.network().GetLinkStats(ia, ib).messages, 3u);
  EXPECT_EQ(sim.network().GetLinkStats(ia, ib).bytes, 3u * 64u);
  EXPECT_EQ(sim.network().GetLinkStats(ib, ia).messages, 1u);
  EXPECT_EQ(a.delivered_from.size(), 1u);
  EXPECT_EQ(b.delivered_from.size(), 3u);
}

// Satellite: "overlapping SetLinkDown calls extend the outage" — the second
// call must stretch the window, not restart or shrink it.
TEST(NetworkTest, SetLinkDownOverlapExtendsOutage) {
  Simulator sim;
  TestHost a, b;
  NodeId ia = sim.network().AddHost(&a);
  NodeId ib = sim.network().AddHost(&b);
  sim.network().SetLinkDown(ia, ib, 1000);
  sim.events().ScheduleAt(500, [&] { sim.network().SetLinkDown(ia, ib, 1000); });
  bool up_at_1200 = true, up_at_1400 = true, up_at_1600 = false;
  sim.events().ScheduleAt(1200, [&] { up_at_1200 = sim.network().IsLinkUp(ia, ib); });
  sim.events().ScheduleAt(1400, [&] { up_at_1400 = sim.network().IsLinkUp(ia, ib); });
  sim.events().ScheduleAt(1600, [&] { up_at_1600 = sim.network().IsLinkUp(ia, ib); });
  sim.Run();
  EXPECT_FALSE(up_at_1200);  // inside the extended window
  EXPECT_FALSE(up_at_1400);  // would be up had the second call not extended
  EXPECT_TRUE(up_at_1600);
  // A shorter overlapping call must never shrink the outage.
  sim.network().SetLinkDown(ia, ib, 1000);
  sim.network().SetLinkDown(ia, ib, 10);
  EXPECT_FALSE(sim.network().IsLinkUp(ia, ib));
  sim.RunFor(500);
  EXPECT_FALSE(sim.network().IsLinkUp(ia, ib));
  sim.RunFor(600);
  EXPECT_TRUE(sim.network().IsLinkUp(ia, ib));
}

// Destination dies (unplanned, SetNodeUp) while the message is in flight —
// the sender must get HandleSendFailure (its TCP connection resets), not
// silence.
TEST(NetworkTest, InFlightLossNotifiesSenderOnDynamicDeath) {
  Simulator sim;
  TestHost a, b;
  NodeId ia = sim.network().AddHost(&a);
  NodeId ib = sim.network().AddHost(&b);
  sim.network().Send(ia, ib, std::make_shared<PingMsg>());
  // Default latency is 20 ms; kill the destination at 5 ms, mid-flight.
  sim.events().ScheduleAt(FromMillis(5), [&] { sim.network().SetNodeUp(ib, false); });
  sim.Run();
  EXPECT_TRUE(b.delivered_from.empty());
  ASSERT_EQ(a.failed_to.size(), 1u);
  EXPECT_EQ(a.failed_to[0], ib);
}

TEST(NetworkTest, InFlightLossNotifiesSenderDiscipline) {
  Simulator sim;
  TestHost a, b;
  NodeId ia = sim.network().AddHost(&a);
  NodeId ib = sim.network().AddHost(&b);
  // The planned outage covers the arrival (~20 ms), so the in-flight loss is
  // resolved at send time from the plan.
  sim.network().PlanNodeOutage(ib, FromMillis(5), FromMillis(5000));
  sim.network().Send(ia, ib, std::make_shared<PingMsg>());
  sim.Run();
  EXPECT_TRUE(b.delivered_from.empty());
  ASSERT_EQ(a.failed_to.size(), 1u);
  EXPECT_EQ(a.failed_to[0], ib);
}

TEST(NetworkTest, PlannedOutageLivenessWindows) {
  Simulator sim;
  TestHost a, b;
  NodeId ia = sim.network().AddHost(&a);
  NodeId ib = sim.network().AddHost(&b);
  sim.network().PlanNodeOutage(ib, 100, 200);
  EXPECT_TRUE(sim.network().IsNodeUpAt(ib, 99));
  EXPECT_FALSE(sim.network().IsNodeUpAt(ib, 100));
  EXPECT_FALSE(sim.network().IsNodeUpAt(ib, 199));
  EXPECT_TRUE(sim.network().IsNodeUpAt(ib, 200));
  sim.network().PlanLinkOutage(ia, ib, 300, 400);
  EXPECT_TRUE(sim.network().IsLinkUpAt(ia, ib, 299));
  EXPECT_FALSE(sim.network().IsLinkUpAt(ib, ia, 350));  // both directions
  EXPECT_TRUE(sim.network().IsLinkUpAt(ia, ib, 400));
}

// Phase-safety contract (tools/analyze rule phase-safety): world-state
// mutators must refuse to run while shard workers execute. SetDelayObserver
// was an unguarded mutation path; this pins the guard added with the rule.
TEST(NetworkDeathTest, SetDelayObserverDuringParallelPhaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    SimulatorOptions opts;
    opts.threads = 2;
    Simulator sim(opts);
    TestHost a, b;
    sim.network().AddHost(&a);
    sim.network().AddHost(&b);
    sim.ScheduleOn(0, 100, [&sim] {
      sim.network().SetDelayObserver([](NodeId, NodeId, SimTime) {});
    });
    sim.Run();
  };
  EXPECT_DEATH(run(), "SetDelayObserver during a parallel phase");
}

// --------------------------------------------------------- parallel engine

// A ping-pong fleet: every host forwards each received message to the next
// host until its hop budget is spent, logging (from, virtual time) locally.
struct RelayHost : Host {
  Simulator* sim = nullptr;
  NodeId id = kInvalidNode;
  int remaining = 0;
  size_t fleet = 0;
  std::vector<std::pair<NodeId, SimTime>> log;

  void HandleMessage(NodeId from, const MessagePtr& msg) override {
    log.emplace_back(from, sim->queue_for(id)->now());
    if (remaining-- <= 0) return;
    NodeId next = static_cast<NodeId>((id + 1) % static_cast<NodeId>(fleet));
    sim->network().Send(id, next, msg);
  }
};

// Runs the relay workload and returns every host's delivery log.
std::vector<std::vector<std::pair<NodeId, SimTime>>> RunRelay(int threads) {
  SimulatorOptions opts;
  opts.threads = threads;
  Simulator sim(opts);
  const size_t kFleet = 12;
  std::vector<std::unique_ptr<RelayHost>> hosts;
  for (size_t i = 0; i < kFleet; ++i) {
    auto h = std::make_unique<RelayHost>();
    h->sim = &sim;
    h->fleet = kFleet;
    h->remaining = 40;
    h->id = sim.network().AddHost(h.get());
    hosts.push_back(std::move(h));
  }
  for (size_t i = 0; i < kFleet; i += 3) {
    NodeId src = static_cast<NodeId>(i);
    sim.ScheduleOn(src, 1000 + i, [&sim, src] {
      sim.network().Send(src, (src + 5) % 12, std::make_shared<PingMsg>());
    });
  }
  sim.Run();
  std::vector<std::vector<std::pair<NodeId, SimTime>>> logs;
  for (auto& h : hosts) logs.push_back(h->log);
  return logs;
}

TEST(ParallelEngineTest, RelayIdenticalAcrossEnginesAndThreadCounts) {
  auto serial = RunRelay(0);  // sequential engine
  size_t delivered = 0;
  for (const auto& log : serial) delivered += log.size();
  EXPECT_GT(delivered, 100u);  // the workload actually ran
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(serial, RunRelay(threads)) << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, ShardPartitionIsThreadCountIndependent) {
  SimulatorOptions opts;
  opts.threads = 3;
  Simulator sim(opts);
  ParallelEngine* eng = sim.parallel_engine();
  ASSERT_NE(eng, nullptr);
  const int shards = ParallelEngine::DefaultShardCount();
  EXPECT_EQ(eng->shard_count(), shards);
  EXPECT_GE(shards, ParallelEngine::kDefaultShards);
  EXPECT_LE(shards, ParallelEngine::kMaxAutoShards);
  EXPECT_EQ(eng->threads(), 3);
  for (NodeId id = 0; id < 32; ++id) {
    EXPECT_EQ(eng->ShardOf(id), static_cast<int>(id) % shards);
    EXPECT_EQ(sim.queue_for(id), &eng->shard_queue(eng->ShardOf(id)));
  }
  EXPECT_EQ(ParallelEngine::current_shard(), -1);  // serial context
}

// Pinning an explicit shard count still works and digests are identical to
// the automatic partition (ordering keys are engine-independent, so the
// shard partition never leaks into results).
TEST(ParallelEngineTest, RelayIdenticalAcrossShardCounts) {
  auto serial = RunRelay(0);
  for (int shards : {4, 8, 16}) {
    SimulatorOptions opts;
    opts.threads = 2;
    opts.shards = shards;
    Simulator sim(opts);
    const size_t kFleet = 12;
    std::vector<std::unique_ptr<RelayHost>> hosts;
    for (size_t i = 0; i < kFleet; ++i) {
      auto h = std::make_unique<RelayHost>();
      h->sim = &sim;
      h->fleet = kFleet;
      h->remaining = 40;
      h->id = sim.network().AddHost(h.get());
      hosts.push_back(std::move(h));
    }
    for (size_t i = 0; i < kFleet; i += 3) {
      NodeId src = static_cast<NodeId>(i);
      sim.ScheduleOn(src, 1000 + i, [&sim, src] {
        sim.network().Send(src, (src + 5) % 12, std::make_shared<PingMsg>());
      });
    }
    sim.Run();
    std::vector<std::vector<std::pair<NodeId, SimTime>>> logs;
    for (auto& h : hosts) logs.push_back(h->log);
    EXPECT_EQ(serial, logs) << "shards=" << shards;
  }
}

TEST(ParallelEngineTest, RunUntilAlignsAllShardClocks) {
  SimulatorOptions opts;
  opts.threads = 2;
  Simulator sim(opts);
  TestHost a, b;
  NodeId ia = sim.network().AddHost(&a);
  sim.network().AddHost(&b);
  int fired = 0;
  sim.ScheduleOn(ia, FromMillis(3), [&] { ++fired; });
  sim.RunUntil(FromSeconds(1));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), FromSeconds(1));
  ParallelEngine* eng = sim.parallel_engine();
  for (int s = 0; s < eng->shard_count(); ++s) {
    EXPECT_EQ(eng->shard_queue(s).now(), FromSeconds(1));
  }
}

// ------------------------------------------------ MindNet digest identity

IndexDef ParallelIndexDef() {
  IndexDef def;
  def.name = "par_idx";
  def.schema = Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.carried = {"payload"};
  def.time_attr = 1;
  return def;
}

Tuple ParallelTuple(Rng* rng, size_t fleet, uint64_t seq) {
  Tuple t;
  t.point = {rng->Uniform(10000), 1000 + seq, rng->Uniform(10000)};
  t.extra = {seq};
  t.origin = static_cast<int>(rng->Uniform(fleet));
  t.seq = seq;
  return t;
}

struct MindRunResult {
  uint64_t digest = 0;
  size_t stored = 0;
  size_t tuples = 0;
  std::vector<SimTime> latencies;  // merged commit order
  // (tuples returned, complete) per range query, in delivery order.
  std::vector<std::pair<size_t, bool>> queries;
  // Virtual-time window trace (thread-count independent).
  uint64_t windows = 0;
  uint64_t events = 0;
  uint64_t exchanged = 0;
  uint64_t widened_windows = 0;
  uint64_t max_multiplier = 0;
};

// A small end-to-end MIND deployment: build, index, inserts, settling — then
// the state digest. `threads == 0` is the sequential engine; anything else
// the sharded parallel engine, over `shards` shards (0: the default count).
// `live` adds heartbeat timers through the whole run and two range queries
// after the inserts, so the engines must also agree on timer events and on
// what each query returns.
MindRunResult RunMindWorkload(int threads, bool with_failures,
                              bool live = false, int shards = 0) {
  MindNetOptions opts;
  opts.sim.seed = 0xfeed;
  opts.sim.threads = threads;
  opts.sim.shards = shards;
  if (live) opts.overlay.heartbeat_interval = FromSeconds(5);
  if (with_failures) {
    opts.sim.failures.link_flaps_per_pair_hour = 2.0;
    opts.sim.failures.node_crashes_per_hour = 0.0;  // planned blackouts only
  }
  const size_t kFleet = 16;
  MindNet net(kFleet, opts);
  EXPECT_TRUE(net.Build().ok());
  IndexDef def = ParallelIndexDef();
  EXPECT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)),
                     1, 0)
                  .ok());
  if (with_failures) net.sim().failures().Start(FromSeconds(120));
  Rng rng(7);
  for (uint64_t i = 0; i < 120; ++i) {
    Tuple t = ParallelTuple(&rng, kFleet, i);
    size_t src = rng.Uniform(kFleet);
    EXPECT_TRUE(net.node(src).Insert("par_idx", std::move(t)).ok());
    net.sim().RunFor(FromMillis(40));
  }
  MindRunResult r;
  if (live) {
    auto record = [&r](const QueryResult& qr) {
      r.queries.emplace_back(qr.tuples.size(), qr.complete);
    };
    EXPECT_TRUE(net.node(2)
                    .Query("par_idx",
                           Rect({{0, 4999}, {0, UINT64_MAX}, {0, 9999}}),
                           record)
                    .ok());
    EXPECT_TRUE(net.node(7)
                    .Query("par_idx",
                           Rect({{0, 9999}, {1050, 1120}, {2000, 8000}}),
                           record)
                    .ok());
  }
  net.sim().RunFor(FromSeconds(60));
  r.digest = net.StateDigest();
  r.stored = net.stored().size();
  r.tuples = net.TotalPrimaryTuples("par_idx");
  for (const auto& info : net.stored()) r.latencies.push_back(info.latency);
  if (const EngineStats* st = net.sim().engine_stats()) {
    r.windows = st->windows;
    r.events = st->events;
    r.exchanged = st->exchanged;
    r.widened_windows = st->widened_windows;
    r.max_multiplier = st->max_multiplier;
  }
  return r;
}

TEST(ParallelEngineTest, MindNetDigestIdenticalAcrossThreadCounts) {
  MindRunResult serial = RunMindWorkload(0, false);
  EXPECT_EQ(serial.stored, 120u);
  EXPECT_EQ(serial.tuples, 120u);
  for (int threads : {1, 2, 4}) {
    MindRunResult par = RunMindWorkload(threads, false);
    EXPECT_EQ(par.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(par.stored, serial.stored) << "threads=" << threads;
    EXPECT_EQ(par.tuples, serial.tuples) << "threads=" << threads;
    EXPECT_EQ(par.latencies, serial.latencies) << "threads=" << threads;
  }
}

// The serial run of the live workload, checked for the figures every engine
// comparison against it relies on: all inserts stored, both queries answered
// in full with rows.
MindRunResult LiveSerialBaseline() {
  MindRunResult serial = RunMindWorkload(0, false, /*live=*/true);
  EXPECT_EQ(serial.stored, 120u);
  EXPECT_EQ(serial.tuples, 120u);
  EXPECT_EQ(serial.queries.size(), 2u);
  for (const auto& [tuples, complete] : serial.queries) {
    EXPECT_GT(tuples, 0u);
    EXPECT_TRUE(complete);
  }
  return serial;
}

void ExpectSameLiveRun(const MindRunResult& par, const MindRunResult& serial) {
  EXPECT_EQ(par.digest, serial.digest);
  EXPECT_EQ(par.stored, serial.stored);
  EXPECT_EQ(par.tuples, serial.tuples);
  EXPECT_EQ(par.latencies, serial.latencies);
  EXPECT_EQ(par.queries, serial.queries);
}

TEST(ParallelEngineTest, MindNetLiveDigestIdenticalAcrossThreadCounts) {
  MindRunResult serial = LiveSerialBaseline();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExpectSameLiveRun(RunMindWorkload(threads, false, /*live=*/true), serial);
  }
}

TEST(ParallelEngineTest, MindNetLiveDigestIdenticalAcrossShardCounts) {
  // Ordering keys are engine-independent, so a shard count other than the
  // default agrees with the serial engine too.
  MindRunResult serial = LiveSerialBaseline();
  ExpectSameLiveRun(RunMindWorkload(2, false, /*live=*/true, /*shards=*/5),
                    serial);
}

// Full thread-count matrix against the sequential digest, with planned link
// flaps active — outages reshape cross-shard traffic mid-run, so this
// exercises the adaptive cap and the lookahead-matrix refresh.
TEST(ParallelEngineTest, MindNetDigestIdenticalUnderPlannedFailures) {
  MindRunResult serial = RunMindWorkload(0, true);
  for (int threads : {1, 2, 4, 8}) {
    MindRunResult par = RunMindWorkload(threads, true);
    EXPECT_EQ(par.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(par.latencies, serial.latencies) << "threads=" << threads;
  }
}

// The adaptive lookahead must be a function of the committed simulation
// alone: the window trace (count, events, exchange volume, widening
// decisions) is bit-identical across thread counts and repeat runs. A wall-clock-driven or racy cap would diverge here.
TEST(ParallelEngineTest, AdaptiveLookaheadIsDeterministic) {
  MindRunResult base = RunMindWorkload(2, false);
  EXPECT_GT(base.windows, 0u);
  EXPECT_GT(base.events, 0u);
  // The workload has long settle phases, so widening must actually engage.
  EXPECT_GT(base.widened_windows, 0u);
  EXPECT_GT(base.max_multiplier, 1u);

  // Repeat run: identical trace.
  MindRunResult again = RunMindWorkload(2, false);
  EXPECT_EQ(again.windows, base.windows);
  EXPECT_EQ(again.events, base.events);
  EXPECT_EQ(again.exchanged, base.exchanged);
  EXPECT_EQ(again.widened_windows, base.widened_windows);
  EXPECT_EQ(again.max_multiplier, base.max_multiplier);

  // Different thread counts: same virtual-time window trace.
  for (int threads : {1, 4}) {
    MindRunResult par = RunMindWorkload(threads, false);
    EXPECT_EQ(par.windows, base.windows) << "threads=" << threads;
    EXPECT_EQ(par.exchanged, base.exchanged) << "threads=" << threads;
    EXPECT_EQ(par.widened_windows, base.widened_windows)
        << "threads=" << threads;
    EXPECT_EQ(par.max_multiplier, base.max_multiplier)
        << "threads=" << threads;
  }
}

// ------------------------------------------------ result delivery order

// One delivered QueryResult as the client saw it, plus the shard context
// its callback ran in.
struct Delivered {
  uint64_t query_id = 0;
  bool complete = false;
  SimTime latency = 0;
  size_t tuples = 0;
  int shard = 0;  // ParallelEngine::current_shard() inside the callback

  bool operator==(const Delivered& o) const {
    return query_id == o.query_id && complete == o.complete &&
           latency == o.latency && tuples == o.tuples && shard == o.shard;
  }
};

void PrintTo(const Delivered& d, std::ostream* os) {
  *os << "{query " << d.query_id << ", complete " << d.complete
      << ", latency " << d.latency << " us, " << d.tuples << " tuples, shard "
      << d.shard << "}";
}

// Originators of the two queries. With the shard count pinned to 8 they sit
// on shards 2 and 7, and their completions share a parallel window.
constexpr size_t kOriginators[2] = {2, 7};
constexpr size_t kDeliveryFleet = 12;

// Twelve nodes (8 shards under the parallel engine) holding 60 tuples.
// `spread` places them around the globe, so link latencies — and with them
// the per-shard window horizons — differ widely.
std::unique_ptr<MindNet> DeliveryNet(int threads, SimTime query_timeout,
                                     bool spread = false) {
  MindNetOptions opts;
  opts.sim.seed = 0x5aa5;
  opts.sim.threads = threads;
  opts.sim.shards = threads > 0 ? 8 : 0;
  opts.mind.query_timeout = query_timeout;
  for (size_t i = 0; spread && i < kDeliveryFleet; ++i) {
    const double k = static_cast<double>(i);
    opts.positions.push_back(GeoPoint{-50.0 + 9.0 * k, -170.0 + 31.0 * k});
  }
  auto net = std::make_unique<MindNet>(kDeliveryFleet, opts);
  EXPECT_TRUE(net->Build().ok());
  IndexDef def = ParallelIndexDef();
  EXPECT_TRUE(net->CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)),
                     1, 0)
                  .ok());
  Rng rng(7);
  for (uint64_t i = 0; i < 60; ++i) {
    Tuple t = ParallelTuple(&rng, kDeliveryFleet, i);
    size_t src = rng.Uniform(kDeliveryFleet);
    EXPECT_TRUE(net->node(src).Insert("par_idx", std::move(t)).ok());
    net->sim().RunFor(FromMillis(40));
  }
  net->sim().RunFor(FromSeconds(30));
  return net;
}

// Records a result into `out`, after stalling `stall_ms` of wall clock.
MindNode::QueryCallback Recorder(std::vector<Delivered>* out, int stall_ms) {
  return [out, stall_ms](const QueryResult& r) {
    if (stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    out->push_back(Delivered{r.query_id, r.complete, r.latency,
                             r.tuples.size(), ParallelEngine::current_shard()});
  };
}

// The two originators query at one instant, node 7 first. Returns the
// callback stream in delivery order. The callback of query `slow` (0 or 1;
// -1 for none) stalls for 20 ms of wall clock before it records — under a
// delivery that ran callbacks on the shard executors, that stall lets the
// other shard's result overtake it. `query_timeout` short enough makes both
// queries time out at one instant: the cross-originator tie.
std::vector<Delivered> RunTwoQueries(int threads, int slow,
                                     SimTime query_timeout) {
  std::unique_ptr<MindNet> net = DeliveryNet(threads, query_timeout);
  const Rect rects[2] = {Rect({{0, 4999}, {0, UINT64_MAX}, {0, 9999}}),
                         Rect({{0, 9999}, {1010, 1050}, {2000, 8000}})};
  std::vector<Delivered> out;
  for (int q : {1, 0}) {
    MindNode::QueryCallback record = Recorder(&out, q == slow ? 20 : 0);
    EXPECT_TRUE(
        net->node(kOriginators[q]).Query("par_idx", rects[q], record).ok());
  }
  net->sim().RunFor(FromSeconds(60));
  EXPECT_EQ(out.size(), 2u);
  return out;
}

// Every node of the spread fleet queries at one instant. Per-shard horizons
// let one shard run ahead of another within a window, so completions of
// consecutive windows interleave in sim time: delivery must follow
// completion time globally, not window by window.
std::vector<Delivered> RunQueryVolley(int threads) {
  std::unique_ptr<MindNet> net =
      DeliveryNet(threads, FromSeconds(45), /*spread=*/true);
  Rng rng(21);
  std::vector<Delivered> out;
  for (size_t n = 0; n < kDeliveryFleet; ++n) {
    Value x = rng.Uniform(10000);
    Value y = rng.Uniform(10000);
    Rect rect({{0, x}, {0, UINT64_MAX}, {y / 2, y}});
    EXPECT_TRUE(net->node(n).Query("par_idx", rect, Recorder(&out, 0)).ok());
  }
  net->sim().RunFor(FromSeconds(60));
  EXPECT_EQ(out.size(), kDeliveryFleet);
  return out;
}

// Callbacks run in serial context, in (completion time, query id) order,
// under every engine: a wall-clock stall in the earlier completion's
// callback cannot let the other shard's result overtake it.
TEST(ParallelEngineTest, QueryResultsDeliveredInSequentialOrder) {
  std::vector<Delivered> serial = RunTwoQueries(0, -1, FromSeconds(45));
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_TRUE(serial[0].complete);
  EXPECT_TRUE(serial[1].complete);
  EXPECT_LT(serial[0].latency, serial[1].latency)
      << "the two queries must complete at different instants";
  // Stall whichever query completes first.
  const int slow = serial[0].query_id >> 32 == kOriginators[0] ? 0 : 1;
  for (int threads : {2, 4}) {
    EXPECT_EQ(RunTwoQueries(threads, slow, FromSeconds(45)), serial)
        << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, QueryVolleyDeliveredInCompletionOrder) {
  std::vector<Delivered> serial = RunQueryVolley(0);
  ASSERT_EQ(serial.size(), kDeliveryFleet);
  for (size_t i = 1; i < serial.size(); ++i) {
    EXPECT_LE(serial[i - 1].latency, serial[i].latency) << "delivery " << i;
  }
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(RunQueryVolley(threads), serial) << "threads=" << threads;
  }
}

// Two queries issued at one instant from different originators both time
// out at one instant. The tie is delivered in query-id order under both
// engines, not in the order the timeouts were scheduled (node 7 first).
TEST(ParallelEngineTest, SameInstantTimeoutsDeliveredInQueryIdOrder) {
  std::vector<Delivered> serial = RunTwoQueries(0, -1, FromMillis(1));
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_FALSE(serial[0].complete);
  EXPECT_FALSE(serial[1].complete);
  EXPECT_EQ(serial[0].latency, serial[1].latency);
  EXPECT_EQ(serial[0].query_id >> 32, kOriginators[0]);
  EXPECT_EQ(serial[1].query_id >> 32, kOriginators[1]);
  // Stall node 2's callback, the one query-id order puts first.
  for (int threads : {2, 4}) {
    EXPECT_EQ(RunTwoQueries(threads, 0, FromMillis(1)), serial)
        << "threads=" << threads;
  }
}

// At the barrier the shard clocks stand at the window end, so work a
// delivery starts would be stamped later than under the sequential engine:
// the engine refuses it instead.
TEST(ParallelEngineDeathTest, DeliveryThatSchedulesWorkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    SimulatorOptions opts;
    opts.threads = 2;
    Simulator sim(opts);
    TestHost a, b;
    sim.network().AddHost(&a);
    sim.network().AddHost(&b);
    sim.ScheduleOn(0, 100, [&sim] {
      sim.Deliver(1, [&sim] { sim.ScheduleOn(1, sim.now() + 1, [] {}); });
    });
    sim.Run();
  };
  EXPECT_DEATH(run(), "under this engine they may only record");
}

TEST(ParallelEngineTest, ValidatorsRunAtBarriers) {
  MindNetOptions opts;
  opts.sim.seed = 0xfeed;
  opts.sim.threads = 2;
  MindNet net(8, opts);
  net.EnablePeriodicValidation(FromSeconds(1));
  EXPECT_TRUE(net.Build().ok());
  EXPECT_TRUE(net.ValidateInvariants().ok());
}

// ------------------------------------------------------- sharded telemetry

TEST(ShardedTelemetryTest, CounterAggregatesAcrossSlots) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("c");
  c.Inc(2);  // recorded before sharding: lands in the base value
  reg.EnableSharding(4);
  telemetry::SetShardSlot(1);
  c.Inc(10);
  telemetry::SetShardSlot(3);
  c.Inc(5);
  telemetry::SetShardSlot(0);
  c.Inc(1);
  EXPECT_EQ(c.value(), 18u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  // Instruments created after EnableSharding are sharded too.
  telemetry::Counter& late = reg.counter("late");
  telemetry::SetShardSlot(2);
  late.Inc(3);
  telemetry::SetShardSlot(0);
  EXPECT_EQ(late.value(), 3u);
}

TEST(ShardedTelemetryTest, HistogramAggregatesAcrossSlots) {
  telemetry::MetricsRegistry reg;
  reg.EnableSharding(3);
  telemetry::SimHistogram& h = reg.histogram("h");
  telemetry::SetShardSlot(1);
  h.Record(1.0);
  h.Record(2.0);
  telemetry::SetShardSlot(2);
  h.Record(100.0);
  telemetry::SetShardSlot(0);
  h.Record(10.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 113.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Mean(), 113.0 / 4, 1e-9);
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace mind
