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
  std::multiset<uint64_t> tuple_seqs;
  bool complete = false;
  SimTime latency = 0;
  SimTime end_time = 0;
  uint64_t query_id = 0;
};

// One fixed insert+query scenario, with run-time telemetry on or off.
TelemetryRunOutcome RunTelemetryScenario(bool telemetry_on) {
  MindNetOptions mopts;
  mopts.sim.seed = 90210;
  MindNet net(12, mopts);
  net.sim().telemetry().set_enabled(telemetry_on);
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
  net.sim().RunFor(FromSeconds(20));
  QueryResult r = RunQuery(net, 3, "idx", Rect({{1000, 8000}, {0, 9999}}));
  TelemetryRunOutcome out;
  for (const auto& t : r.tuples) out.tuple_seqs.insert(t.seq);
  out.complete = r.complete;
  out.latency = r.latency;
  out.end_time = net.sim().now();
  out.query_id = r.query_id;
  return out;
}

}  // namespace

// Telemetry must be a pure observer: running the identical scenario with the
// registry+tracer enabled and disabled yields the same tuples, the same
// completion status and the same sim-clock timings (no RNG draws, no events).
TEST(TelemetryIntegrationTest, RecordingDoesNotPerturbResults) {
  TelemetryRunOutcome on = RunTelemetryScenario(true);
  TelemetryRunOutcome off = RunTelemetryScenario(false);
  EXPECT_FALSE(on.tuple_seqs.empty());
  EXPECT_EQ(on.tuple_seqs, off.tuple_seqs);
  EXPECT_EQ(on.complete, off.complete);
  EXPECT_EQ(on.latency, off.latency);
  EXPECT_EQ(on.end_time, off.end_time);
}

// ------------------------------------------------------------ routing cache

namespace {

struct RouteCacheRunOutcome {
  std::multiset<uint64_t> tuple_seqs;
  std::vector<size_t> primary_counts;
  bool complete = false;
  SimTime latency = 0;
  SimTime end_time = 0;
  uint64_t cache_hits = 0;
};

// One fixed insert+crash+revive+query scenario with the per-node routing
// cache on or off. The crash/revive leg exercises the cache-invalidation
// sites (peer death, avoidance windows, rejoin).
RouteCacheRunOutcome RunRouteCacheScenario(bool cache_on) {
  MindNetOptions mopts;
  mopts.sim.seed = 424242;
  mopts.overlay.route_cache = cache_on;
  MindNet net(16, mopts);
  EXPECT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "idx";
  def.schema = Schema({{"x", 0, 9999}, {"y", 0, 9999}});
  EXPECT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  for (uint64_t i = 0; i < 400; ++i) {
    Tuple t;
    t.point = {i * 37 % 10000, i * 101 % 10000};
    t.seq = i;
    t.origin = static_cast<int>(i % 16);
    EXPECT_TRUE(net.node(i % 16).Insert("idx", t).ok());
    if (i % 50 == 0) net.sim().RunFor(FromSeconds(1));
    if (i == 200) {
      net.node(5).Crash();
      net.sim().RunFor(FromSeconds(15));
      net.node(5).Revive(0);
      net.sim().RunFor(FromSeconds(15));
    }
  }
  net.sim().RunFor(FromSeconds(30));
  QueryResult r = RunQuery(net, 3, "idx", Rect({{1000, 8000}, {0, 9999}}));
  RouteCacheRunOutcome out;
  for (const auto& t : r.tuples) out.tuple_seqs.insert(t.seq);
  for (size_t n = 0; n < net.size(); ++n) {
    out.primary_counts.push_back(net.node(n).PrimaryTupleCount("idx"));
  }
  out.complete = r.complete;
  out.latency = r.latency;
  out.end_time = net.sim().now();
  out.cache_hits = net.sim().metrics().counter("overlay.route.cache_hits").value();
  return out;
}

}  // namespace

// The routing cache must be a pure memoization of BestNextHop: the identical
// scenario with the cache on and off yields bit-identical placement, query
// results and sim-clock timings, while the cached run actually hits.
TEST(RouteCacheIntegrationTest, CacheIsTransparent) {
  RouteCacheRunOutcome on = RunRouteCacheScenario(true);
  RouteCacheRunOutcome off = RunRouteCacheScenario(false);
  EXPECT_FALSE(on.tuple_seqs.empty());
#ifndef MIND_TELEMETRY_DISABLED
  EXPECT_GT(on.cache_hits, 0u);
  EXPECT_EQ(off.cache_hits, 0u);
#endif
  EXPECT_EQ(on.tuple_seqs, off.tuple_seqs);
  EXPECT_EQ(on.primary_counts, off.primary_counts);
  EXPECT_EQ(on.complete, off.complete);
  EXPECT_EQ(on.latency, off.latency);
  EXPECT_EQ(on.end_time, off.end_time);
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
// invalidation.
StorePathRunOutcome RunStorePathScenario(bool compaction, bool crash = true) {
  MindNetOptions mopts;
  mopts.sim.seed = 515151;
  mopts.mind.store_compaction = compaction;
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
// compacts, and the cover cache actually hits.
TEST(StorePathIntegrationTest, LayoutKnobsAreTransparent) {
  StorePathRunOutcome base = RunStorePathScenario(true);
  StorePathRunOutcome no_compact = RunStorePathScenario(false);
  EXPECT_FALSE(base.tuple_seqs.empty());
#ifndef MIND_TELEMETRY_DISABLED
  EXPECT_GT(base.compactions, 0u);
  EXPECT_EQ(no_compact.compactions, 0u);
  EXPECT_GT(base.cover_hits, 0u);
#endif
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
#ifndef MIND_TELEMETRY_DISABLED
  EXPECT_GT(base.compactions, 0u);
  EXPECT_GT(base.cover_hits, 0u);
#endif
}

#ifndef MIND_TELEMETRY_DISABLED
// With telemetry on, the instrumented paths populate the registry and the
// flight recorder end to end.
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

  // The query's span tree is in the flight recorder: a root "query" span with
  // resolve/reply descendants.
  const auto* spans = net.sim().tracer().GetTrace(r.query_id);
  ASSERT_NE(spans, nullptr);
  auto tree = net.sim().tracer().Tree(r.query_id);
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0].span->name, "query");
  EXPECT_TRUE(tree[0].span->closed);
  bool saw_resolve = false, saw_reply = false;
  for (const auto& s : *spans) {
    if (s.name == "query.resolve") saw_resolve = true;
    if (s.name == "query.reply") saw_reply = true;
  }
  EXPECT_TRUE(saw_resolve);
  EXPECT_TRUE(saw_reply);
}
#endif  // MIND_TELEMETRY_DISABLED

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
