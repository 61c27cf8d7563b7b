// Cross-module integration tests: the full pipeline (generator → aggregation
// → filters → distributed index → query) checked against offline evaluation,
// multi-index isolation, trace round-tripping and the end-to-end anomaly
// workflow.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>

#include "anomaly/mind_detector.h"
#include "mind/mind_net.h"
#include "traffic/aggregator.h"
#include "traffic/flow_generator.h"
#include "traffic/indices.h"
#include "traffic/topology.h"
#include "traffic/trace_io.h"

namespace mind {
namespace {

QueryResult RunQuery(MindNet& net, size_t from, const std::string& index,
                     const Rect& rect) {
  std::optional<QueryResult> out;
  auto qid = net.node(from).Query(index, rect,
                                  [&](const QueryResult& r) { out = r; });
  EXPECT_TRUE(qid.ok());
  SimTime deadline = net.sim().now() + FromSeconds(120);
  while (!out && net.sim().now() < deadline) net.sim().RunFor(FromMillis(200));
  EXPECT_TRUE(out.has_value());
  return out.value_or(QueryResult{});
}

// The distributed index must answer exactly like an offline scan of the same
// filtered tuple stream — for all three paper indices at once.
TEST(PipelineIntegrationTest, DistributedEqualsOfflineForAllThreeIndices) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 60;
  gopts.seed = 11111;
  FlowGenerator gen(topo, gopts);

  MindNetOptions mopts;
  mopts.sim.seed = 22222;
  mopts.positions = topo.Positions();
  MindNet net(topo.size(), mopts);
  // Sweep the structure validators over the whole net every 10 s of virtual
  // time while the pipeline runs (no-op in MIND_VALIDATORS=OFF builds).
  net.EnablePeriodicValidation(FromSeconds(10));
  ASSERT_TRUE(net.Build().ok());
  for (const IndexDef& def : {MakeIndex1(), MakeIndex2(), MakeIndex3()}) {
    ASSERT_TRUE(net.CreateIndexEverywhere(
                       def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                    .ok());
  }

  // Generate + aggregate + filter offline, and insert the same tuples.
  std::vector<Tuple> t1, t2, t3;
  uint64_t seq = 0;
  const double window = 30;
  for (double t = 39600; t < 40500; t += window) {
    Aggregator agg({window, 16, 300});
    gen.Generate(0, t, t + window, [&](const FlowRecord& f) { agg.Add(f); });
    SimTime when = net.sim().now() + FromMillis(10);
    for (const auto& rec : agg.DrainAll()) {
      if (auto tup = ToIndex1Tuple(rec, ++seq)) {
        t1.push_back(*tup);
        net.sim().events().ScheduleAt(when, [&net, tup] {
          ASSERT_TRUE(
              net.node(tup->origin).Insert("index1_fanout", *tup).ok());
        });
      }
      if (auto tup = ToIndex2Tuple(rec, ++seq)) {
        t2.push_back(*tup);
        net.sim().events().ScheduleAt(when, [&net, tup] {
          ASSERT_TRUE(
              net.node(tup->origin).Insert("index2_octets", *tup).ok());
        });
      }
      if (auto tup = ToIndex3Tuple(rec, ++seq)) {
        t3.push_back(*tup);
        net.sim().events().ScheduleAt(when, [&net, tup] {
          ASSERT_TRUE(
              net.node(tup->origin).Insert("index3_flowsize", *tup).ok());
        });
      }
    }
    net.sim().RunFor(FromSeconds(window));
  }
  net.sim().RunFor(FromSeconds(30));
  // Quiescent now: the fleet-wide overlay invariants must hold too.
  ASSERT_TRUE(net.ValidateInvariants().ok());

  ASSERT_GT(t2.size(), 20u);  // the workload must be non-trivial
  EXPECT_EQ(net.TotalPrimaryTuples("index1_fanout"), t1.size());
  EXPECT_EQ(net.TotalPrimaryTuples("index2_octets"), t2.size());
  EXPECT_EQ(net.TotalPrimaryTuples("index3_flowsize"), t3.size());

  struct Case {
    const char* index;
    const std::vector<Tuple>* offline;
  };
  Rng rng(5);
  for (const Case& c : {Case{"index1_fanout", &t1}, Case{"index2_octets", &t2},
                        Case{"index3_flowsize", &t3}}) {
    const IndexDef* def = net.node(0).GetIndexDef(c.index);
    for (int iter = 0; iter < 5; ++iter) {
      Value a = rng.Uniform(0x100000000ull), b = rng.Uniform(0x100000000ull);
      Rect q({{std::min(a, b), std::max(a, b)},
              {39600, 40500},
              {0, def->schema.attr(2).max}});
      QueryResult r = RunQuery(net, rng.Uniform(net.size()), c.index, q);
      EXPECT_TRUE(r.complete);
      std::multiset<uint64_t> expected, got;
      for (const auto& t : *c.offline) {
        if (q.Contains(t.point)) expected.insert(t.seq);
      }
      for (const auto& t : r.tuples) got.insert(t.seq);
      EXPECT_EQ(got, expected) << c.index << " query " << iter;
    }
  }
}

// Indices are independent: dropping one leaves the others fully queryable.
TEST(PipelineIntegrationTest, DropIsolation) {
  MindNetOptions mopts;
  mopts.sim.seed = 333;
  MindNet net(8, mopts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef a, b;
  a.name = "keep";
  a.schema = Schema({{"x", 0, 999}});
  b.name = "drop";
  b.schema = Schema({{"x", 0, 999}});
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     a, std::make_shared<CutTree>(CutTree::Even(a.schema)))
                  .ok());
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     b, std::make_shared<CutTree>(CutTree::Even(b.schema)))
                  .ok());
  for (uint64_t i = 0; i < 50; ++i) {
    Tuple t;
    t.point = {i * 17 % 1000};
    t.seq = i;
    t.origin = static_cast<int>(i % 8);
    ASSERT_TRUE(net.node(i % 8).Insert("keep", t).ok());
    ASSERT_TRUE(net.node(i % 8).Insert("drop", t).ok());
  }
  net.sim().RunFor(FromSeconds(20));
  ASSERT_TRUE(net.node(2).DropIndex("drop").ok());
  net.sim().RunFor(FromSeconds(10));
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_FALSE(net.node(i).HasIndex("drop"));
    EXPECT_TRUE(net.node(i).HasIndex("keep"));
  }
  QueryResult r = RunQuery(net, 1, "keep", Rect({{0, 999}}));
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.tuples.size(), 50u);
  // Inserting into the dropped index now fails cleanly.
  Tuple t;
  t.point = {1};
  EXPECT_TRUE(net.node(0).Insert("drop", t).IsNotFound());
}

// The full §5 anomaly workflow at test scale: inject, index, ground-truth,
// query, capture.
TEST(AnomalyIntegrationTest, EndToEndScanCapture) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 60;
  gopts.seed = 444;
  FlowGenerator gen(topo, gopts);

  MindNetOptions mopts;
  mopts.sim.seed = 445;
  mopts.positions = topo.Positions();
  MindNet net(topo.size(), mopts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef def = MakeIndex1();
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());

  AnomalyEvent scan;
  scan.type = AnomalyType::kPortScan;
  scan.start_sec = 36060;
  scan.duration_sec = 90;
  scan.src_prefix = 3;
  scan.dst_prefix = 12;
  scan.magnitude = 40000;
  AnomalyInjector injector(&gen);

  std::vector<AggregateRecord> all_aggregates;
  uint64_t seq = 0;
  for (double t = 36000; t < 36300; t += 30) {
    Aggregator agg({30, 16, 300});
    gen.Generate(0, t, t + 30, [&](const FlowRecord& f) { agg.Add(f); });
    for (const auto& f : injector.Generate(scan, t, t + 30)) agg.Add(f);
    SimTime when = net.sim().now() + FromMillis(10);
    for (const auto& rec : agg.DrainAll()) {
      all_aggregates.push_back(rec);
      if (auto tup = ToIndex1Tuple(rec, ++seq)) {
        net.sim().events().ScheduleAt(when, [&net, tup] {
          (void)net.node(tup->origin).Insert("index1_fanout", *tup);
        });
      }
    }
    net.sim().RunFor(FromSeconds(30));
  }
  net.sim().RunFor(FromSeconds(30));

  GroundTruthOptions gt;
  gt.fanout = 1500;
  auto anomalies = GroundTruthDetector(gt).Detect(all_aggregates);
  bool found_scan = false;
  MindAnomalyDetector detector(&net, "index1_fanout", "index1_fanout");
  for (const auto& anomaly : anomalies) {
    if (anomaly.type != AnomalyType::kPortScan) continue;
    found_scan = true;
    auto outcome = detector.QueryFanout({0, 5, 9}, anomaly.first_window - 60,
                                        anomaly.last_window + 60, gt.fanout);
    EXPECT_TRUE(outcome.all_complete);
    EXPECT_TRUE(MindAnomalyDetector::Captures(outcome, anomaly));
    EXPECT_GE(outcome.result_size, anomaly.record_count);
  }
  EXPECT_TRUE(found_scan) << "injected scan not in ground truth";
}

// --------------------------------------------------------------- telemetry

namespace {

struct TelemetryRunOutcome {
  // sim.net.messages, counted from the start of the run, at the two points
  // where the registry is (or, in the run that keeps counting, would be)
  // zeroed.
  uint64_t first_reset_at = 0;
  uint64_t second_reset_at = 0;
  std::multiset<uint64_t> tuple_seqs;
  bool complete = false;
  SimTime latency = 0;
  SimTime end_time = 0;
  uint64_t digest = 0;
};

// The second reset point: coprime to the first one, 945 = 3^3 * 5 * 7, so
// logic that read a counter's value modulo a small number sees its phase
// shifted after the second reset even where the first reset kept it.
constexpr uint64_t kSecondResetAt = 961;  // 31^2

// One fixed insert+query scenario. With `reset_mid_run`, the metrics
// registry is zeroed once every insert is issued, while their messages are
// still in flight — the same mid-run Reset() a benchmark makes between setup
// and its measured phase — and again at kSecondResetAt messages, while the
// inserts still settle. Both runs step the simulator through the same calls.
TelemetryRunOutcome RunTelemetryScenario(bool reset_mid_run) {
  MindNetOptions mopts;
  mopts.sim.seed = 90210;
  MindNet net(12, mopts);
  EXPECT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "idx";
  def.schema = Schema({{"x", 0, 9999}, {"y", 0, 9999}});
  EXPECT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  for (uint64_t i = 0; i < 300; ++i) {
    Tuple t;
    t.point = {i * 37 % 10000, i * 101 % 10000};
    t.seq = i;
    t.origin = static_cast<int>(i % 12);
    EXPECT_TRUE(net.node(i % 12).Insert("idx", t).ok());
    if (i % 50 == 0) net.sim().RunFor(FromSeconds(1));
  }
  TelemetryRunOutcome out;
  const telemetry::Counter& messages =
      net.sim().metrics().counter("sim.net.messages");
  out.first_reset_at = messages.value();
  // Messages sent so far, whether or not the registry was zeroed.
  auto sent = [&] {
    return messages.value() + (reset_mid_run ? out.first_reset_at : 0);
  };
  if (reset_mid_run) net.sim().metrics().Reset();
  const SimTime settled = net.sim().now() + FromSeconds(20);
  while (sent() < kSecondResetAt && net.sim().Run(1) > 0) {
  }
  out.second_reset_at = sent();
  if (reset_mid_run) net.sim().metrics().Reset();
  net.sim().RunUntil(settled);
  QueryResult r = RunQuery(net, 3, "idx", Rect({{1000, 8000}, {0, 9999}}));
  for (const auto& t : r.tuples) out.tuple_seqs.insert(t.seq);
  out.complete = r.complete;
  out.latency = r.latency;
  out.end_time = net.sim().now();
  out.digest = net.StateDigest();
  return out;
}

}  // namespace

// Telemetry must be a pure observer: simulation logic never reads an
// instrument back, so zeroing every instrument mid-run leaves the tuples,
// the completion status, the sim-clock timings and the logical state
// exactly as in the run whose registry keeps counting.
TEST(TelemetryIntegrationTest, RecordingDoesNotPerturbResults) {
  TelemetryRunOutcome kept = RunTelemetryScenario(false);
  TelemetryRunOutcome reset = RunTelemetryScenario(true);
  // The scenario reaches both reset points exactly.
  EXPECT_EQ(kept.first_reset_at, 945u);
  EXPECT_EQ(kept.second_reset_at, kSecondResetAt);
  EXPECT_EQ(reset.first_reset_at, kept.first_reset_at);
  EXPECT_EQ(reset.second_reset_at, kept.second_reset_at);
  EXPECT_FALSE(kept.tuple_seqs.empty());
  EXPECT_EQ(kept.tuple_seqs, reset.tuple_seqs);
  EXPECT_EQ(kept.complete, reset.complete);
  EXPECT_EQ(kept.latency, reset.latency);
  EXPECT_EQ(kept.end_time, reset.end_time);
  EXPECT_EQ(kept.digest, reset.digest);
}

// ------------------------------------------------------------ greedy routing

// Insert routing, a crash and revive, and queries on a 16-node overlay, all
// checked against brute force: peer death, avoidance windows and the rejoin
// must leave placement and query answers exact. Heartbeats run so the overlay
// detects the crash and repairs around it; without them the queries never
// complete.
TEST(RoutingIntegrationTest, CrashAndReviveKeepAnswersExact) {
  MindNetOptions mopts;
  mopts.sim.seed = 424242;
  mopts.overlay.heartbeat_interval = FromSeconds(2);
  MindNet net(16, mopts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "idx";
  def.schema = Schema({{"x", 0, 9999}, {"y", 0, 9999}});
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  std::vector<Tuple> inserted;
  for (uint64_t i = 0; i < 400; ++i) {
    Tuple t;
    t.point = {i * 37 % 10000, i * 101 % 10000};
    t.seq = i;
    t.origin = static_cast<int>(i % 16);
    inserted.push_back(t);
    ASSERT_TRUE(net.node(i % 16).Insert("idx", t).ok());
    if (i % 50 == 0) net.sim().RunFor(FromSeconds(1));
    if (i == 200) {
      net.node(5).Crash();
      net.sim().RunFor(FromSeconds(15));
      net.node(5).Revive(0);
      net.sim().RunFor(FromSeconds(15));
    }
  }
  net.sim().RunFor(FromSeconds(30));

  for (int q = 0; q < 3; ++q) {
    SCOPED_TRACE(q);
    const Rect rect({{1000u + 500u * q, 8000}, {0, 9999}});
    QueryResult r = RunQuery(net, 3 + q, "idx", rect);
    EXPECT_TRUE(r.complete);
    std::multiset<uint64_t> got, expected;
    for (const auto& t : r.tuples) got.insert(t.seq);
    for (const Tuple& t : inserted) {
      if (rect.Contains(t.point)) expected.insert(t.seq);
    }
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(got, expected);
  }

  size_t primaries = 0;
  for (size_t n = 0; n < net.size(); ++n) {
    primaries += net.node(n).PrimaryTupleCount("idx");
  }
  EXPECT_EQ(primaries, net.stored().size());
}

// ----------------------------------------------------- store layout knobs

namespace {

struct StorePathRunOutcome {
  std::multiset<uint64_t> tuple_seqs;
  bool complete = false;
  SimTime latency = 0;
  SimTime end_time = 0;
  uint64_t digest = 0;
  uint64_t compactions = 0;
  uint64_t cover_hits = 0;
  // Brute force over the inserted tuples: the seqs each query must return.
  std::multiset<uint64_t> expected_seqs;
};

// One fixed insert+crash+revive+query scenario with store compaction
// toggled. Enough inserts that the compaction ratio trigger fires, plus a
// crash/revive leg (unless `crash` is off) to exercise cover-cache
// invalidation. The crash leg runs heartbeats so the overlay detects the
// crash and repairs around it; without them the queries never complete.
StorePathRunOutcome RunStorePathScenario(bool compaction, bool crash = true) {
  MindNetOptions mopts;
  mopts.sim.seed = 515151;
  mopts.mind.store_compaction = compaction;
  if (crash) mopts.overlay.heartbeat_interval = FromSeconds(2);
  MindNet net(12, mopts);
  EXPECT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "idx";
  def.schema = Schema({{"x", 0, 9999}, {"y", 0, 9999}});
  EXPECT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  std::vector<Tuple> inserted;
  for (uint64_t i = 0; i < 1500; ++i) {
    Tuple t;
    t.point = {i * 37 % 10000, i * 101 % 10000};
    t.seq = i;
    t.origin = static_cast<int>(i % 12);
    inserted.push_back(t);
    EXPECT_TRUE(net.node(i % 12).Insert("idx", t).ok());
    if (i % 200 == 0) net.sim().RunFor(FromSeconds(1));
    if (crash && i == 700) {
      net.node(4).Crash();
      net.sim().RunFor(FromSeconds(15));
      net.node(4).Revive(0);
      net.sim().RunFor(FromSeconds(15));
    }
  }
  net.sim().RunFor(FromSeconds(30));
  StorePathRunOutcome out;
  out.complete = true;
  // Several queries so covers repeat (the cache's hit case) and results are
  // compared across more than one rectangle.
  for (int q = 0; q < 3; ++q) {
    const Rect rect({{1000u + 500u * q, 8000}, {0, 9999}});
    QueryResult r = RunQuery(net, 3 + q, "idx", rect);
    for (const auto& t : r.tuples) out.tuple_seqs.insert(t.seq);
    for (const Tuple& t : inserted) {
      if (rect.Contains(t.point)) out.expected_seqs.insert(t.seq);
    }
    out.complete = out.complete && r.complete;
    out.latency = r.latency;
  }
  out.end_time = net.sim().now();
  out.digest = net.StateDigest();
  out.compactions = net.sim().metrics().counter("storage.compaction.count").value();
  out.cover_hits =
      net.sim().metrics().counter("storage.cover_cache.hits").value();
  return out;
}

}  // namespace

// Compaction is layout only: on and off must yield bit-identical tuples,
// latencies, sim clock and whole-net digest — while the enabled run actually
// compacts, and the cover cache actually hits. Across the crash and revive
// every query still completes with exactly the brute-force answer.
TEST(StorePathIntegrationTest, LayoutKnobsAreTransparent) {
  StorePathRunOutcome base = RunStorePathScenario(true);
  StorePathRunOutcome no_compact = RunStorePathScenario(false);
  EXPECT_FALSE(base.tuple_seqs.empty());
  EXPECT_TRUE(base.complete);
  EXPECT_EQ(base.tuple_seqs, base.expected_seqs);
  EXPECT_GT(base.compactions, 0u);
  EXPECT_EQ(no_compact.compactions, 0u);
  EXPECT_GT(base.cover_hits, 0u);
  EXPECT_EQ(base.tuple_seqs, no_compact.tuple_seqs);
  EXPECT_EQ(base.complete, no_compact.complete);
  EXPECT_EQ(base.latency, no_compact.latency);
  EXPECT_EQ(base.end_time, no_compact.end_time);
  EXPECT_EQ(base.digest, no_compact.digest);
}

// The store layout is pure physical layout (DESIGN.md §13): through the
// whole deployment — routing, replication, compaction, cover-cache hits —
// every query completes and returns exactly what brute force over the
// inserted tuples says it must.
TEST(StorePathIntegrationTest, BackendsAreTransparent) {
  StorePathRunOutcome base = RunStorePathScenario(true, /*crash=*/false);
  EXPECT_FALSE(base.tuple_seqs.empty());
  EXPECT_TRUE(base.complete);
  EXPECT_EQ(base.tuple_seqs, base.expected_seqs);
  EXPECT_GT(base.compactions, 0u);
  EXPECT_GT(base.cover_hits, 0u);
}

// The instrumented paths populate the registry end to end.
TEST(TelemetryIntegrationTest, InstrumentsAndTracesPopulate) {
  MindNetOptions mopts;
  mopts.sim.seed = 90211;
  MindNet net(12, mopts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "idx";
  def.schema = Schema({{"x", 0, 9999}});
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  for (uint64_t i = 0; i < 100; ++i) {
    Tuple t;
    t.point = {i * 97 % 10000};
    t.seq = i;
    t.origin = static_cast<int>(i % 12);
    ASSERT_TRUE(net.node(i % 12).Insert("idx", t).ok());
  }
  net.sim().RunFor(FromSeconds(20));
  QueryResult r = RunQuery(net, 5, "idx", Rect({{0, 9999}}));
  ASSERT_TRUE(r.complete);

  auto& m = net.sim().metrics();
  EXPECT_EQ(m.counter("mind.insert.count").value(), 100u);
  EXPECT_GE(m.counter("mind.query.count").value(), 1u);
  EXPECT_GT(m.counter("sim.events.processed").value(), 0u);
  EXPECT_GT(m.counter("sim.net.messages").value(), 0u);
  EXPECT_GT(m.counter("overlay.join.attempts").value(), 0u);
  EXPECT_EQ(m.FindHistogram("mind.insert.latency_ms")->count(), 100u);
  EXPECT_GT(m.FindHistogram("mind.query.latency_ms")->count(), 0u);
  EXPECT_GT(m.FindHistogram("storage.scan.rows_returned")->count(), 0u);
}

// ---------------------------------------------------------------- trace IO

TEST(TraceIoTest, FlowsRoundTrip) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 777;
  FlowGenerator gen(topo, gopts);
  auto flows = gen.GenerateVec(0, 40000, 40060);
  ASSERT_GT(flows.size(), 10u);

  std::stringstream buf;
  ASSERT_TRUE(WriteFlowsCsv(buf, flows).ok());
  auto back = ReadFlowsCsv(buf);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ((*back)[i].src_ip, flows[i].src_ip);
    EXPECT_EQ((*back)[i].dst_ip, flows[i].dst_ip);
    EXPECT_EQ((*back)[i].bytes, flows[i].bytes);
    EXPECT_EQ((*back)[i].router, flows[i].router);
    EXPECT_NEAR((*back)[i].time_sec, flows[i].time_sec, 1e-3);
  }
}

TEST(TraceIoTest, AggregatesRoundTrip) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 778;
  FlowGenerator gen(topo, gopts);
  auto aggregates = AggregateAll(gen.GenerateVec(0, 40000, 40120));
  ASSERT_GT(aggregates.size(), 5u);

  std::stringstream buf;
  ASSERT_TRUE(WriteAggregatesCsv(buf, aggregates).ok());
  auto back = ReadAggregatesCsv(buf);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), aggregates.size());
  for (size_t i = 0; i < aggregates.size(); ++i) {
    EXPECT_EQ((*back)[i].src_prefix, aggregates[i].src_prefix);
    EXPECT_EQ((*back)[i].octets, aggregates[i].octets);
    EXPECT_EQ((*back)[i].fanout, aggregates[i].fanout);
    EXPECT_EQ((*back)[i].top_dst_port, aggregates[i].top_dst_port);
  }
}

TEST(TraceIoTest, RejectsMalformedInput) {
  {
    std::stringstream buf("not,a,header\n");
    EXPECT_FALSE(ReadFlowsCsv(buf).ok());
  }
  {
    std::stringstream buf;
    buf << "src_ip,dst_ip,src_port,dst_port,bytes,packets,time_sec,router\n"
        << "1.2.3.4,5.6.7.8,80\n";  // too few fields
    EXPECT_FALSE(ReadFlowsCsv(buf).ok());
  }
  {
    std::stringstream buf;
    buf << "src_ip,dst_ip,src_port,dst_port,bytes,packets,time_sec,router\n"
        << "1.2.3.4,5.6.7.8,99999,80,100,1,5.0,0\n";  // port out of range
    EXPECT_FALSE(ReadFlowsCsv(buf).ok());
  }
}

}  // namespace
}  // namespace mind
