#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "mind/mind_net.h"
#include "util/rng.h"

namespace mind {
namespace {

IndexDef TestIndexDef() {
  IndexDef def;
  def.name = "test_idx";
  // (x, timestamp, y): timestamp versioned.
  def.schema = Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.carried = {"payload"};
  def.time_attr = 1;
  return def;
}

CutTreeRef EvenCutsFor(const IndexDef& def) {
  return std::make_shared<CutTree>(CutTree::Even(def.schema));
}

Tuple MakeTuple(Value x, SimTime ts, Value y, int origin, uint64_t seq) {
  Tuple t;
  t.point = {x, ts, y};
  t.extra = {x * 1000 + y};
  t.origin = origin;
  t.seq = seq;
  return t;
}

// Runs a query synchronously: issues it and runs the sim until the callback.
QueryResult RunQuery(MindNet& net, size_t from, const std::string& index,
                     const Rect& rect) {
  std::optional<QueryResult> out;
  auto qid = net.node(from).Query(index, rect,
                                  [&](const QueryResult& r) { out = r; });
  EXPECT_TRUE(qid.ok()) << qid.status().ToString();
  SimTime deadline = net.sim().now() + FromSeconds(120);
  while (!out.has_value() && net.sim().now() < deadline) {
    net.sim().RunFor(FromSeconds(1));
  }
  EXPECT_TRUE(out.has_value()) << "query never completed";
  return out.value_or(QueryResult{});
}

class MindNetTest : public ::testing::Test {
 protected:
  void Start(size_t n, int replication = 1, uint64_t seed = 0x5eed) {
    MindNetOptions opts;
    opts.sim.seed = seed;
    opts.mind.replication = replication;
    net_ = std::make_unique<MindNet>(n, opts);
    ASSERT_TRUE(net_->Build().ok());
    def_ = TestIndexDef();
    ASSERT_TRUE(
        net_->CreateIndexEverywhere(def_, EvenCutsFor(def_), 1, 0).ok());
  }

  std::unique_ptr<MindNet> net_;
  IndexDef def_;
};

TEST_F(MindNetTest, CreateIndexReachesAllNodes) {
  Start(8);
  for (size_t i = 0; i < net_->size(); ++i) {
    EXPECT_TRUE(net_->node(i).HasIndex("test_idx"));
    const IndexDef* def = net_->node(i).GetIndexDef("test_idx");
    ASSERT_NE(def, nullptr);
    EXPECT_EQ(def->schema.dims(), 3);
    EXPECT_EQ(def->time_attr, 1);
  }
}

TEST_F(MindNetTest, CreateIndexValidation) {
  Start(4);
  IndexDef bad = def_;                 // duplicate name
  EXPECT_TRUE(net_->node(0)
                  .CreateIndex(bad, EvenCutsFor(bad))
                  .IsAlreadyExists());
  IndexDef other = def_;
  other.name = "other";
  EXPECT_TRUE(net_->node(0)
                  .CreateIndex(other, nullptr)
                  .IsInvalidArgument());
  Schema wrong({{"z", 0, 1}});
  EXPECT_TRUE(net_->node(0)
                  .CreateIndex(other, std::make_shared<CutTree>(CutTree::Even(wrong)))
                  .IsInvalidArgument());
}

TEST_F(MindNetTest, DropIndexRemovesEverywhere) {
  Start(8);
  ASSERT_TRUE(net_->node(3).DropIndex("test_idx").ok());
  net_->sim().RunFor(FromSeconds(10));
  for (size_t i = 0; i < net_->size(); ++i) {
    EXPECT_FALSE(net_->node(i).HasIndex("test_idx"));
  }
  EXPECT_TRUE(net_->node(0).DropIndex("nope").IsNotFound());
}

TEST_F(MindNetTest, InsertStoresAtOwnerAndCountsMatch) {
  Start(8);
  Rng rng(1);
  const int kTuples = 200;
  for (int i = 0; i < kTuples; ++i) {
    size_t src = rng.Uniform(net_->size());
    Tuple t = MakeTuple(rng.Uniform(10000), 1000 + i, rng.Uniform(10000),
                        static_cast<int>(src), i);
    ASSERT_TRUE(net_->node(src).Insert("test_idx", std::move(t)).ok());
    net_->sim().RunFor(FromMillis(50));
  }
  net_->sim().RunFor(FromSeconds(30));
  EXPECT_EQ(net_->TotalPrimaryTuples("test_idx"), kTuples);
  EXPECT_EQ(net_->stored().size(), kTuples);
  for (const auto& info : net_->stored()) {
    EXPECT_GT(info.latency, 0u);
    EXPECT_LE(info.hops, 12);
  }
}

TEST_F(MindNetTest, InsertValidation) {
  Start(4);
  Tuple wrong;
  wrong.point = {1, 2};  // arity 2 != 3
  EXPECT_TRUE(net_->node(0).Insert("test_idx", wrong).IsInvalidArgument());
  EXPECT_TRUE(net_->node(0).Insert("missing", MakeTuple(1, 1, 1, 0, 0))
                  .IsNotFound());
}

TEST_F(MindNetTest, InsertBatchValidation) {
  Start(4);
  EXPECT_TRUE(net_->node(0).InsertBatch("test_idx", {}).ok());  // no-op
  Tuple wrong;
  wrong.point = {1, 2};
  EXPECT_TRUE(net_->node(0)
                  .InsertBatch("test_idx", {MakeTuple(1, 1, 1, 0, 0), wrong})
                  .IsInvalidArgument());
  EXPECT_TRUE(net_->node(0)
                  .InsertBatch("missing", {MakeTuple(1, 1, 1, 0, 0)})
                  .IsNotFound());
}

// InsertBatch promises placement identical to per-tuple Insert: feed the same
// tuple stream both ways (fresh nets, same seed) and the per-node primary
// counts and queryable contents must match exactly.
TEST_F(MindNetTest, InsertBatchMatchesSingleInsertPlacement) {
  const int kBatches = 16, kPerBatch = 12;
  struct Placement {
    std::vector<size_t> primary, replica;  // per node
    uint64_t replicas_sent = 0;
    std::multiset<std::pair<NodeId, int>> storer_hops;
    std::multiset<uint64_t> seqs;
  };
  auto make_tuples = [&](int b) {
    std::vector<Tuple> tuples;
    Rng rng(7000 + b);
    for (int i = 0; i < kPerBatch; ++i) {
      tuples.push_back(MakeTuple(rng.Uniform(10000), 1000 + b * kPerBatch + i,
                                 rng.Uniform(10000), b % 8,
                                 b * kPerBatch + i));
    }
    return tuples;
  };

  auto run = [&](bool batched) {
    Start(8);
    for (int b = 0; b < kBatches; ++b) {
      auto tuples = make_tuples(b);
      size_t src = b % 8;
      if (batched) {
        EXPECT_TRUE(net_->node(src).InsertBatch("test_idx", std::move(tuples)).ok());
      } else {
        for (auto& t : tuples) {
          EXPECT_TRUE(net_->node(src).Insert("test_idx", std::move(t)).ok());
        }
      }
      net_->sim().RunFor(FromMillis(500));
    }
    net_->sim().RunFor(FromSeconds(30));
    Placement p;
    for (size_t n = 0; n < net_->size(); ++n) {
      p.primary.push_back(net_->node(n).PrimaryTupleCount("test_idx"));
      p.replica.push_back(net_->node(n).ReplicaTupleCount("test_idx"));
    }
    p.replicas_sent =
        net_->sim().metrics().counter("mind.replicate.sent").value();
    for (const auto& info : net_->stored()) {
      p.storer_hops.emplace(info.storer, info.hops);
    }
    QueryResult r =
        RunQuery(*net_, 2, "test_idx", Rect({{0, 9999}, {0, 100000}, {0, 9999}}));
    for (const auto& t : r.tuples) p.seqs.insert(t.seq);
    return p;
  };

  Placement batch = run(true);
  Placement single = run(false);
  EXPECT_EQ(batch.seqs.size(), static_cast<size_t>(kBatches * kPerBatch));
  EXPECT_EQ(batch.primary, single.primary);
  EXPECT_EQ(batch.seqs, single.seqs);
  // The replicate half of the commit: every stored tuple reaches the same
  // replica holders whether it arrived alone or in a train.
  EXPECT_GT(std::accumulate(batch.replica.begin(), batch.replica.end(),
                            size_t{0}),
            0u);
  EXPECT_EQ(batch.replica, single.replica);
  EXPECT_EQ(batch.replicas_sent, single.replicas_sent);
  EXPECT_EQ(batch.storer_hops, single.storer_hops);
}

TEST_F(MindNetTest, QueryReturnsExactlyMatchingTuples) {
  Start(8);
  Rng rng(2);
  std::vector<Tuple> all;
  for (int i = 0; i < 300; ++i) {
    size_t src = rng.Uniform(net_->size());
    Tuple t = MakeTuple(rng.Uniform(10000), 1000 + rng.Uniform(5000),
                        rng.Uniform(10000), static_cast<int>(src), i);
    all.push_back(t);
    ASSERT_TRUE(net_->node(src).Insert("test_idx", std::move(t)).ok());
    net_->sim().RunFor(FromMillis(20));
  }
  net_->sim().RunFor(FromSeconds(30));

  for (int iter = 0; iter < 10; ++iter) {
    Value x1 = rng.Uniform(10000), x2 = rng.Uniform(10000);
    Rect q({{std::min(x1, x2), std::max(x1, x2)},
            {0, UINT64_MAX},
            {0, 9999}});
    QueryResult r = RunQuery(*net_, rng.Uniform(net_->size()), "test_idx", q);
    EXPECT_TRUE(r.complete);
    std::set<uint64_t> expected, got;
    for (const auto& t : all) {
      if (q.Contains(t.point)) expected.insert(t.seq);
    }
    for (const auto& t : r.tuples) {
      EXPECT_TRUE(q.Contains(t.point));
      got.insert(t.seq);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST_F(MindNetTest, QueryCostIsSmall) {
  Start(16);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    size_t src = rng.Uniform(net_->size());
    ASSERT_TRUE(net_->node(src)
                    .Insert("test_idx",
                            MakeTuple(rng.Uniform(10000), 1000 + i,
                                      rng.Uniform(10000),
                                      static_cast<int>(src), i))
                    .ok());
    net_->sim().RunFor(FromMillis(20));
  }
  net_->sim().RunFor(FromSeconds(20));
  // Narrow queries touch few nodes.
  for (int iter = 0; iter < 10; ++iter) {
    Value x = rng.Uniform(9000);
    Rect q({{x, x + 200}, {0, UINT64_MAX}, {0, 9999}});
    QueryResult r = RunQuery(*net_, rng.Uniform(net_->size()), "test_idx", q);
    EXPECT_TRUE(r.complete);
    EXPECT_LE(net_->QueryVisitCount(r.query_id), 10u);
  }
}

TEST_F(MindNetTest, NegativeQueryCompletesEmpty) {
  Start(8);
  // No data inserted at all.
  Rect q({{0, 9999}, {0, UINT64_MAX}, {0, 9999}});
  QueryResult r = RunQuery(*net_, 2, "test_idx", q);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.tuples.empty());
  EXPECT_GE(r.responders, 1u);  // negative replies still arrive
}

TEST_F(MindNetTest, QueryValidation) {
  Start(4);
  auto r1 = net_->node(0).Query("missing", Rect({{0, 1}}), [](auto&) {});
  EXPECT_TRUE(r1.status().IsNotFound());
  auto r2 = net_->node(0).Query("test_idx", Rect({{0, 1}}), [](auto&) {});
  EXPECT_TRUE(r2.status().IsInvalidArgument());
}

TEST_F(MindNetTest, ReplicationStoresCopies) {
  Start(8, /*replication=*/1);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net_->node(0)
                    .Insert("test_idx",
                            MakeTuple(rng.Uniform(10000), 1000 + i,
                                      rng.Uniform(10000), 0, i))
                    .ok());
    net_->sim().RunFor(FromMillis(20));
  }
  net_->sim().RunFor(FromSeconds(20));
  size_t replicas = 0;
  for (size_t i = 0; i < net_->size(); ++i) {
    replicas += net_->node(i).ReplicaTupleCount("test_idx");
  }
  EXPECT_EQ(replicas, 100u);  // m=1: exactly one replica per tuple
}

TEST_F(MindNetTest, FullReplicationStoresAtAllPeers) {
  Start(8, /*replication=*/-1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net_->node(0)
                    .Insert("test_idx", MakeTuple(i * 100, 1000 + i, 50, 0, i))
                    .ok());
    net_->sim().RunFor(FromMillis(20));
  }
  net_->sim().RunFor(FromSeconds(20));
  size_t replicas = 0;
  for (size_t i = 0; i < net_->size(); ++i) {
    replicas += net_->node(i).ReplicaTupleCount("test_idx");
  }
  EXPECT_GT(replicas, 50u);  // every peer of the owner holds a copy
}

TEST_F(MindNetTest, QueriesSurviveNodeFailureWithReplication) {
  MindNetOptions opts;
  opts.sim.seed = 77;
  opts.mind.replication = 1;
  opts.mind.query_timeout = FromSeconds(20);
  opts.overlay.heartbeat_interval = FromSeconds(2);
  net_ = std::make_unique<MindNet>(12, opts);
  ASSERT_TRUE(net_->Build().ok());
  def_ = TestIndexDef();
  ASSERT_TRUE(net_->CreateIndexEverywhere(def_, EvenCutsFor(def_), 1, 0).ok());

  Rng rng(5);
  std::vector<Tuple> all;
  for (int i = 0; i < 200; ++i) {
    size_t src = rng.Uniform(net_->size());
    Tuple t = MakeTuple(rng.Uniform(10000), 1000 + i, rng.Uniform(10000),
                        static_cast<int>(src), i);
    all.push_back(t);
    ASSERT_TRUE(net_->node(src).Insert("test_idx", std::move(t)).ok());
    net_->sim().RunFor(FromMillis(30));
  }
  net_->sim().RunFor(FromSeconds(30));

  // Kill one node; its sibling should serve its region from replicas.
  net_->node(7).Crash();
  net_->sim().RunFor(FromSeconds(40));

  Rect q({{0, 9999}, {0, UINT64_MAX}, {0, 9999}});
  QueryResult r = RunQuery(*net_, 1, "test_idx", q);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.tuples.size(), all.size()) << "lost tuples despite replication";
}

TEST_F(MindNetTest, VersionedQueriesUseCorrectCuts) {
  Start(8);
  // Version 1 covers ts < 100000; install version 2 with balanced cuts for
  // ts >= 100000.
  Rng rng(6);
  Histogram h(def_.schema, 8);
  for (int i = 0; i < 500; ++i) {
    h.Add({rng.Uniform(500), 50000 + rng.Uniform(1000), rng.Uniform(10000)});
  }
  auto balanced = CutTree::Balanced(def_.schema, h, 6);
  ASSERT_TRUE(balanced.ok());
  ASSERT_TRUE(net_->InstallCutsEverywhere(
                      "test_idx", 2,
                      std::make_shared<CutTree>(std::move(balanced).value()),
                      100000)
                  .ok());

  // Insert one batch into each version epoch.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net_->node(i % 8)
                    .Insert("test_idx",
                            MakeTuple(rng.Uniform(500), 50000 + i, 7, 0, i))
                    .ok());
    ASSERT_TRUE(net_->node(i % 8)
                    .Insert("test_idx",
                            MakeTuple(rng.Uniform(500), 200000 + i, 7, 0,
                                      1000 + i))
                    .ok());
    net_->sim().RunFor(FromMillis(20));
  }
  net_->sim().RunFor(FromSeconds(30));

  // Query only the old epoch.
  QueryResult r1 = RunQuery(*net_, 0, "test_idx",
                            Rect({{0, 9999}, {0, 99999}, {0, 9999}}));
  EXPECT_TRUE(r1.complete);
  EXPECT_EQ(r1.tuples.size(), 100u);
  // Query only the new epoch.
  QueryResult r2 = RunQuery(*net_, 0, "test_idx",
                            Rect({{0, 9999}, {100000, UINT64_MAX}, {0, 9999}}));
  EXPECT_TRUE(r2.complete);
  EXPECT_EQ(r2.tuples.size(), 100u);
  // Query spanning both versions.
  QueryResult r3 = RunQuery(*net_, 0, "test_idx",
                            Rect({{0, 9999}, {0, UINT64_MAX}, {0, 9999}}));
  EXPECT_TRUE(r3.complete);
  EXPECT_EQ(r3.tuples.size(), 200u);
}

TEST_F(MindNetTest, RebalanceServiceInstallsBalancedCuts) {
  Start(8);
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    // Skewed: all x in [0, 500).
    ASSERT_TRUE(net_->node(i % 8)
                    .Insert("test_idx",
                            MakeTuple(rng.Uniform(500), 1000 + i,
                                      rng.Uniform(10000), 0, i))
                    .ok());
    net_->sim().RunFor(FromMillis(10));
  }
  net_->sim().RunFor(FromSeconds(20));

  MindNode::RebalanceParams params;
  params.index = "test_idx";
  params.source_version = 1;
  params.bins_per_dim = 8;
  params.cut_depth = 6;
  params.new_version = 2;
  params.new_start = 50 * kUsPerDay;
  params.collect_window = FromSeconds(15);
  std::optional<Status> done;
  ASSERT_TRUE(net_->node(0)
                  .StartRebalance(params, [&](Status s) { done = s; })
                  .ok());
  net_->sim().RunFor(FromSeconds(60));
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->ok()) << done->ToString();
  for (size_t i = 0; i < net_->size(); ++i) {
    const IndexVersions* pv = net_->node(i).PrimaryVersions("test_idx");
    ASSERT_NE(pv, nullptr);
    EXPECT_TRUE(pv->HasVersion(2)) << "node " << i << " missing version 2";
    // The new cuts must differ from even cuts (the data was skewed).
    EXPECT_GT(pv->Cuts(2)->materialized_depth(), 0);
  }
}

TEST_F(MindNetTest, LateJoinerLearnsIndicesAndServesOldData) {
  MindNetOptions opts;
  opts.sim.seed = 99;
  net_ = std::make_unique<MindNet>(9, opts);
  // Build with only the first 8 nodes.
  net_->node(0).BecomeFirst();
  for (size_t i = 1; i < 8; ++i) {
    net_->node(i).Join(0);
    net_->sim().RunFor(FromSeconds(3));
  }
  ASSERT_EQ(net_->JoinedCount(), 8u);
  def_ = TestIndexDef();
  ASSERT_TRUE(net_->CreateIndexEverywhere(def_, EvenCutsFor(def_), 1, 0).ok());

  Rng rng(8);
  std::vector<Tuple> all;
  for (int i = 0; i < 200; ++i) {
    size_t src = rng.Uniform(8);
    Tuple t = MakeTuple(rng.Uniform(10000), 1000 + i, rng.Uniform(10000),
                        static_cast<int>(src), i);
    all.push_back(t);
    ASSERT_TRUE(net_->node(src).Insert("test_idx", std::move(t)).ok());
    net_->sim().RunFor(FromMillis(20));
  }
  net_->sim().RunFor(FromSeconds(20));

  // Node 8 joins now; data inserted before its join stays at its split
  // parent, reachable through the forward pointer.
  net_->node(8).Join(0);
  SimTime deadline = net_->sim().now() + FromSeconds(120);
  while (net_->JoinedCount() < 9 && net_->sim().now() < deadline) {
    net_->sim().RunFor(FromSeconds(1));
  }
  ASSERT_EQ(net_->JoinedCount(), 9u);
  net_->sim().RunFor(FromSeconds(10));
  EXPECT_TRUE(net_->node(8).HasIndex("test_idx"));

  QueryResult r = RunQuery(*net_, 8, "test_idx",
                           Rect({{0, 9999}, {0, UINT64_MAX}, {0, 9999}}));
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.tuples.size(), all.size());
}

TEST_F(MindNetTest, AnomalyByProductListsObservingMonitors) {
  // §5: query results identify which monitors saw the anomalous traffic.
  Start(8);
  for (int origin = 0; origin < 4; ++origin) {
    ASSERT_TRUE(net_->node(origin)
                    .Insert("test_idx", MakeTuple(42, 5000, 42, origin, origin))
                    .ok());
    net_->sim().RunFor(FromMillis(50));
  }
  net_->sim().RunFor(FromSeconds(20));
  QueryResult r = RunQuery(*net_, 6, "test_idx",
                           Rect({{42, 42}, {0, UINT64_MAX}, {42, 42}}));
  EXPECT_TRUE(r.complete);
  std::set<int> monitors;
  for (const auto& t : r.tuples) monitors.insert(t.origin);
  EXPECT_EQ(monitors, (std::set<int>{0, 1, 2, 3}));
}

// --------------------------------------------- Query lifecycle reclamation

TEST_F(MindNetTest, CancelQueryFinalizesIncompleteAndReclaims) {
  Start(8);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net_->node(rng.Uniform(8))
                    .Insert("test_idx", MakeTuple(rng.Uniform(10000), 1000 + i,
                                                  rng.Uniform(10000), 0, i))
                    .ok());
    net_->sim().RunFor(FromMillis(30));
  }
  net_->sim().RunFor(FromSeconds(20));

  const uint64_t timeouts_before =
      net_->sim().metrics().counter("mind.query.timeouts").value();
  std::optional<QueryResult> out;
  auto qid = net_->node(2).Query(
      "test_idx", Rect({{0, 9999}, {0, UINT64_MAX}, {0, 9999}}),
      [&](const QueryResult& r) { out = r; });
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(net_->node(2).pending_query_count(), 1u);

  // Cancel while the query is still fanning out: the callback must fire
  // exactly once (complete=false), the tracker state must be reclaimed, and
  // the cancellation must be counted with the timeouts.
  EXPECT_TRUE(net_->node(2).CancelQuery(qid.value()));
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->complete);
  EXPECT_EQ(net_->node(2).pending_query_count(), 0u);
  EXPECT_EQ(net_->sim().metrics().counter("mind.query.timeouts").value(),
            timeouts_before + 1);

  // A second cancel (and a cancel of a never-issued id) is a no-op.
  EXPECT_FALSE(net_->node(2).CancelQuery(qid.value()));
  EXPECT_FALSE(net_->node(2).CancelQuery(0xdeadbeef));

  // Straggler replies to the finalized query must be ignored, not crash or
  // re-fire the callback.
  out.reset();
  net_->sim().RunFor(FromSeconds(60));
  EXPECT_FALSE(out.has_value());
  EXPECT_TRUE(net_->ValidateInvariants(/*quiescent=*/true).ok());
}

TEST_F(MindNetTest, CrashFiresPendingQueryCallbacksIncomplete) {
  Start(8);
  ASSERT_TRUE(net_->node(0).Insert("test_idx", MakeTuple(5, 2000, 5, 0, 1)).ok());
  net_->sim().RunFor(FromSeconds(10));

  int fired = 0;
  int complete = 0;
  Rect everything({{0, 9999}, {0, UINT64_MAX}, {0, 9999}});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net_->node(4)
                    .Query("test_idx", everything,
                           [&](const QueryResult& r) {
                             ++fired;
                             if (r.complete) ++complete;
                           })
                    .ok());
  }
  EXPECT_EQ(net_->node(4).pending_query_count(), 3u);

  // A crash must not leak pending queries: every outstanding callback fires
  // (incomplete), so callers blocked on the node learn their fate.
  net_->node(4).Crash();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(complete, 0);
  EXPECT_EQ(net_->node(4).pending_query_count(), 0u);
  net_->sim().RunFor(FromSeconds(30));
  EXPECT_EQ(fired, 3);  // stragglers never re-fire a finalized callback
}

}  // namespace
}  // namespace mind
