// Regression tests for defects found (and fixed) while reproducing the
// paper's experiments. Each test pins the failure mode described in
// EXPERIMENTS.md §"Findings".
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "mind/mind_net.h"
#include "space/cut_tree.h"
#include "traffic/indices.h"
#include "traffic/topology.h"

namespace mind {
namespace {

// ---------------------------------------------------------------- network

TEST(NetworkOrderingTest, HeavyJitterNeverReordersALink) {
  // The join protocol assumes TCP's in-order delivery; the simulated link
  // must keep FIFO order no matter how heavy the jitter tail is.
  struct SeqMsg : Message {
    explicit SeqMsg(int s) : seq(s) {}
    int seq;
    const char* TypeName() const override { return "Seq"; }
  };
  struct SeqHost : Host {
    std::vector<int> got;
    void HandleMessage(NodeId, const MessagePtr& m) override {
      got.push_back(dynamic_cast<SeqMsg*>(m.get())->seq);
    }
  };
  EventQueue q;
  NetworkOptions opts;
  opts.jitter_mu_ln_ms = 5.0;   // ~150 ms median
  opts.jitter_sigma_ln = 2.0;   // wild tail: raw delays would reorder badly
  Network net(&q, opts);
  SeqHost a, b;
  net.AddHost(&a);
  net.AddHost(&b);
  for (int i = 0; i < 200; ++i) {
    net.Send(0, 1, std::make_shared<SeqMsg>(i));
  }
  q.Run();
  ASSERT_EQ(b.got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(b.got[i], i);
}

// ---------------------------------------------------------------- cut tree

TEST(BalancedCutRegressionTest, SubCellDataStillSplits) {
  // A day of timestamps spans less than one histogram cell of a 14-day
  // domain. Median-of-cell-centers used to put ALL live data on one side of
  // every time cut; interpolation within the cell must split it.
  Schema s({{"ts", 0, 14 * 86400ull}, {"v", 0, 1000}});
  Histogram h(s, 16);  // ts cell width = 75600 s > the 3600 s data range
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 4000; ++i) {
    pts.push_back({86400 + rng.Uniform(3600), rng.Uniform(1001)});
    h.Add(pts.back());
  }
  auto tree = CutTree::Balanced(s, h, 6);
  ASSERT_TRUE(tree.ok());
  // Count side-1 fractions per level: no level may send everything one way.
  for (int lvl = 0; lvl < 4; ++lvl) {
    int ones = 0;
    for (const auto& p : pts) {
      if (tree->CodeForPoint(p, lvl + 1).bit(lvl)) ++ones;
    }
    double frac = static_cast<double>(ones) / static_cast<double>(pts.size());
    EXPECT_GT(frac, 0.02) << "level " << lvl << " is degenerate";
    EXPECT_LT(frac, 0.98) << "level " << lvl << " is degenerate";
  }
}

TEST(BalancedCutRegressionTest, DegenerateDimensionIsSkipped) {
  // One attribute is a constant; round-robin cutting must not burn levels
  // on it (they would halve the usable region count).
  Schema s({{"constant", 5, 5}, {"x", 0, 100000}});
  Histogram h(s, 32);
  Rng rng(5);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({5, rng.Uniform(100001)});
    h.Add(pts.back());
  }
  auto tree = CutTree::Balanced(s, h, 5);
  ASSERT_TRUE(tree.ok());
  std::set<std::string> codes;
  for (const auto& p : pts) codes.insert(tree->CodeForPoint(p, 5).ToString());
  // With a useless dimension skipped, the 5 cuts land on x and produce
  // (nearly) 32 populated regions; the old behaviour produced <= 8.
  EXPECT_GE(codes.size(), 24u);
}

// ---------------------------------------------------------------- mind

IndexDef SmallDef() {
  IndexDef def;
  def.name = "reg";
  def.schema = Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.time_attr = 1;
  return def;
}

TEST(QueryCompletionRegressionTest, SupplementalRepliesDoNotCompleteQueries) {
  // Late joiners forward resolve-only copies to their split parent (§3.4).
  // Those supplementary (often empty) replies must not mark regions covered,
  // or they race the owner's real reply and the query "completes" with
  // missing data. Build a net with a late joiner, load the owner regions,
  // and verify every query returns the full answer.
  MindNetOptions opts;
  opts.sim.seed = 4242;
  MindNet net(10, opts);
  net.node(0).BecomeFirst();
  for (size_t i = 1; i < 9; ++i) {
    net.node(i).Join(0);
    net.sim().RunFor(FromSeconds(3));
  }
  ASSERT_EQ(net.JoinedCount(), 9u);
  IndexDef def = SmallDef();
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  Rng rng(7);
  std::vector<Tuple> all;
  for (int i = 0; i < 300; ++i) {
    Tuple t;
    t.point = {rng.Uniform(10000), static_cast<Value>(1000 + i),
               rng.Uniform(10000)};
    t.origin = static_cast<int>(i % 9);
    t.seq = i;
    all.push_back(t);
    ASSERT_TRUE(net.node(i % 9).Insert("reg", t).ok());
    if (i % 40 == 0) net.sim().RunFor(FromSeconds(1));
  }
  net.sim().RunFor(FromSeconds(30));

  // Node 9 joins late: every resolve at node 9's region now also generates a
  // supplemental forward to its parent.
  net.node(9).Join(0);
  SimTime deadline = net.sim().now() + FromSeconds(120);
  while (net.JoinedCount() < 10 && net.sim().now() < deadline) {
    net.sim().RunFor(FromSeconds(1));
  }
  ASSERT_EQ(net.JoinedCount(), 10u);
  net.sim().RunFor(FromSeconds(5));

  for (int iter = 0; iter < 15; ++iter) {
    Value a = rng.Uniform(10000), b = rng.Uniform(10000);
    Rect q({{std::min(a, b), std::max(a, b)}, {0, UINT64_MAX}, {0, 9999}});
    std::optional<QueryResult> res;
    auto qid = net.node(iter % 10).Query("reg", q,
                                         [&](const QueryResult& r) { res = r; });
    ASSERT_TRUE(qid.ok());
    SimTime qdeadline = net.sim().now() + FromSeconds(90);
    while (!res && net.sim().now() < qdeadline) net.sim().RunFor(FromMillis(200));
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->complete);
    std::set<uint64_t> expected, got;
    for (const auto& t : all) {
      if (q.Contains(t.point)) expected.insert(t.seq);
    }
    for (const auto& t : res->tuples) got.insert(t.seq);
    EXPECT_EQ(got, expected) << "query " << iter << " lost tuples";
  }
}

TEST(JoinRegressionTest, GhostPeerDoesNotPoisonLaterJoins) {
  // An aborted join can leave an unjoined node in its neighbours' peer
  // tables. Asked to split, that ghost rejects as "not joined" with an empty
  // code; relabelling the proposer's entry to that code made the ghost the
  // shallowest candidate for every later join, and the build stalled
  // (seeds 16 and 18 at 5-6 of 34 nodes). The proposer now drops the entry.
  // Settings are fig07's: 34 Abilene+GEANT nodes under heavy jitter.
  Topology topo = Topology::AbileneGeant();
  for (uint64_t seed : {16, 18, 7070, 7073}) {
    MindNetOptions opts;
    opts.sim.seed = seed;
    opts.sim.network.jitter_mu_ln_ms = 5.3;
    opts.sim.network.jitter_sigma_ln = 1.1;
    opts.overlay.heartbeat_interval = FromSeconds(5);
    opts.mind.replication = 1;
    opts.positions = topo.Positions();
    MindNet net(topo.size(), opts);
    Status st = net.Build();
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
    EXPECT_TRUE(net.CodesFormCompleteCover()) << "seed " << seed;
  }
}

TEST(TakeoverRegressionTest, SiblingPairDeathEventuallyRecovered) {
  // When a node AND its whole sibling subtree die together, vacancy notices
  // routed into the dead pair vanish; the detector-side escalation must walk
  // up the virtual tree until a live branch absorbs the region.
  MindNetOptions opts;
  opts.sim.seed = 321;
  opts.overlay.heartbeat_interval = FromSeconds(2);
  MindNet net(24, opts);
  ASSERT_TRUE(net.Build().ok());

  // Find a node whose exact sibling exists; kill both at once.
  int a = -1, b = -1;
  for (size_t i = 0; i < net.size() && a < 0; ++i) {
    BitCode sib = net.node(i).overlay().code().Sibling();
    for (size_t j = 1; j < net.size(); ++j) {
      if (j != i && net.node(j).overlay().code() == sib) {
        a = static_cast<int>(i);
        b = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(a, 0);
  net.node(a).Crash();
  net.node(b).Crash();
  net.sim().RunFor(FromSeconds(120));
  EXPECT_TRUE(net.CodesFormCompleteCover())
      << "dead sibling pair's region was never absorbed";
}

// A recursive takeover (§3.8) relabels X, the all-zeros leaf of a dead
// region's sibling side, into the dead region R. X's own region is left
// behind, and the tuples X stored there must follow it to the node that
// absorbs it: X's exact sibling (the code-update cascade), or, when that
// side is split, its all-zeros leaf, which X tells to relabel into the
// vacancy. Replication 0, so no replica elsewhere can hide a loss. Before
// the hand-off the stranded tuples (~70 of 600) were missing from every
// answer; without the vacancy notice the split case never closed its cover.
void KillUncleRegionAndCheckNothingStranded(uint64_t seed,
                                            bool sibling_split) {
  const size_t kNodes = 24;
  MindNetOptions opts;
  opts.sim.seed = seed;
  opts.mind.replication = 0;
  opts.overlay.heartbeat_interval = FromSeconds(2);
  MindNet net(kNodes, opts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "t";
  def.schema =
      Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.time_attr = 1;
  auto cuts = std::make_shared<CutTree>(CutTree::Even(def.schema));
  ASSERT_TRUE(net.CreateIndexEverywhere(def, cuts, 1, 0).ok());
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 600; ++i) {
    Tuple t;
    t.point = {rng.Uniform(10000), 1000 + rng.Uniform(1000),
               rng.Uniform(10000)};
    t.origin = i % static_cast<int>(kNodes);
    t.seq = static_cast<uint64_t>(i) + 1;
    tuples.push_back(t);
    ASSERT_TRUE(net.node(i % kNodes).Insert("t", t).ok());
    if (i % 50 == 0) net.sim().RunFor(FromSeconds(1));
  }
  net.sim().RunFor(FromSeconds(20));

  // X ends in 0, so it is the all-zeros leaf of its parent's region, whose
  // sibling R (X's "uncle" region) holds live nodes, none of them node 0
  // (the query gateway below).
  size_t x = kNodes;
  BitCode uncle;
  std::vector<size_t> in_uncle;
  for (size_t i = 0; i < kNodes && x == kNodes; ++i) {
    const BitCode& code = net.node(i).overlay().code();
    if (code.length() < 3 || code.bit(code.length() - 1) != 0) continue;
    const BitCode r = code.Parent().Sibling();
    std::vector<size_t> members;
    bool exact_sibling = false;
    for (size_t v = 0; v < kNodes; ++v) {
      const BitCode& other = net.node(v).overlay().code();
      if (r.IsPrefixOf(other)) members.push_back(v);
      if (other == code.Sibling()) exact_sibling = true;
    }
    if (members.empty() || members.front() == 0 ||
        exact_sibling == sibling_split) {
      continue;
    }
    x = i;
    uncle = r;
    in_uncle = members;
  }
  ASSERT_LT(x, kNodes) << "no candidate layout at seed " << seed;
  for (size_t v : in_uncle) net.node(v).Crash();
  net.sim().RunFor(FromSeconds(150));
  ASSERT_EQ(net.node(x).overlay().code(), uncle)
      << "the recursive takeover this test pins did not happen";
  EXPECT_TRUE(net.CodesFormCompleteCover());

  std::optional<QueryResult> out;
  Rect everything({{0, 9999}, {0, UINT64_MAX}, {0, 9999}});
  ASSERT_TRUE(net.node(0)
                  .Query("t", everything,
                         [&](const QueryResult& r) { out = r; })
                  .ok());
  for (int i = 0; i < 120 && !out.has_value(); ++i) {
    net.sim().RunFor(FromSeconds(1));
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->complete);
  std::set<uint64_t> got;
  for (const Tuple& t : out->tuples) got.insert(t.seq);
  size_t missing = 0;
  for (const Tuple& t : tuples) {
    // The dead region's own tuples had no replica: lost, not stranded.
    if (uncle.IsPrefixOf(cuts->CodeForPoint(t.point, 32))) continue;
    if (got.count(t.seq) == 0) ++missing;
  }
  EXPECT_EQ(missing, 0u);
}

TEST(TakeoverRegressionTest, RelabelHandsTheOldRegionToTheExactSibling) {
  KillUncleRegionAndCheckNothingStranded(1, /*sibling_split=*/false);
}

TEST(TakeoverRegressionTest, RelabelHandsTheOldRegionToASplitSiblingSide) {
  KillUncleRegionAndCheckNothingStranded(1, /*sibling_split=*/true);
}

TEST(TakeoverRegressionTest, HalfTheFleetDiesWithoutOverlapOrLoss) {
  // Half of a fully replicated 102-node fleet dies at once. Two defects
  // showed here. (1) Nodes whose peers at one prefix level all died could
  // no longer route into that half of the tree; their vacancy probes went
  // unanswered, silence read as vacancy, and they relabelled into regions
  // live nodes still owned (9 overlapping code pairs on this draw; n0 once
  // took over half the key space). A heartbeat from such a level now
  // refills it. (2) A node that relabels into a vacant region was not
  // necessarily a neighbour of the dead owners, so it held none of the
  // region's replicas; it now asks its peers for them (68 of 400 tuples
  // were lost without that request).
  const size_t kNodes = 102;
  const uint64_t kSeed = 2;
  MindNetOptions opts;
  opts.sim.seed = kSeed;
  opts.mind.replication = -1;  // every overlay neighbour holds a copy
  opts.overlay.heartbeat_interval = FromSeconds(2);
  MindNet net(kNodes, opts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "t";
  def.schema =
      Schema({{"x", 0, 9999}, {"ts", 0, UINT64_MAX}, {"y", 0, 9999}});
  def.time_attr = 1;
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)),
                     1, 0)
                  .ok());
  Rng rng(kSeed);
  std::set<uint64_t> expected;
  for (int i = 0; i < 400; ++i) {
    Tuple t;
    t.point = {rng.Uniform(10000), 1000 + rng.Uniform(1000),
               rng.Uniform(10000)};
    t.origin = i % static_cast<int>(kNodes);
    t.seq = static_cast<uint64_t>(i) + 1;
    expected.insert(t.seq);
    ASSERT_TRUE(net.node(i % kNodes).Insert("t", t).ok());
    if (i % 50 == 0) net.sim().RunFor(FromSeconds(1));
  }
  net.sim().RunFor(FromSeconds(20));
  std::set<size_t> killed;
  while (killed.size() < kNodes / 2) {
    const size_t v = 1 + rng.Uniform(kNodes - 1);  // node 0 is the gateway
    if (killed.insert(v).second) net.node(v).Crash();
  }
  net.sim().RunFor(FromSeconds(90));

  size_t overlaps = 0;
  for (size_t i = 0; i < kNodes; ++i) {
    for (size_t j = i + 1; j < kNodes; ++j) {
      if (!net.node(i).overlay().alive() || !net.node(j).overlay().alive()) {
        continue;
      }
      const BitCode& a = net.node(i).overlay().code();
      const BitCode& b = net.node(j).overlay().code();
      if (a.IsPrefixOf(b) || b.IsPrefixOf(a)) ++overlaps;
    }
  }
  EXPECT_EQ(overlaps, 0u);
  EXPECT_TRUE(net.CodesFormCompleteCover());

  std::optional<QueryResult> out;
  Rect everything({{0, 9999}, {0, UINT64_MAX}, {0, 9999}});
  ASSERT_TRUE(net.node(0)
                  .Query("t", everything,
                         [&](const QueryResult& r) { out = r; })
                  .ok());
  for (int i = 0; i < 60 && !out.has_value(); ++i) {
    net.sim().RunFor(FromSeconds(1));
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->complete);
  std::set<uint64_t> got;
  for (const Tuple& t : out->tuples) got.insert(t.seq);
  EXPECT_EQ(got, expected);
}

TEST(RebalanceRegressionTest, TimeShiftedCutsServeTheNextDay) {
  // Without the one-day time shift, every next-day tuple lands on the high
  // side of every time cut and storage re-concentrates.
  Schema s({{"x", 0, 999}, {"ts", 0, 14 * 86400ull}});
  Histogram h(s, 64);
  Rng rng(9);
  // "Yesterday's" data, shifted forward one day as the service does.
  for (int i = 0; i < 3000; ++i) {
    h.Add({rng.Uniform(1000), 86400 + 39600 + rng.Uniform(3600)});
  }
  auto tree = CutTree::Balanced(s, h, 6);
  ASSERT_TRUE(tree.ok());
  // "Today's" tuples (same time-of-day, one day later) spread over many
  // regions rather than collapsing into one.
  std::set<std::string> codes;
  for (int i = 0; i < 3000; ++i) {
    Point p{rng.Uniform(1000), 86400 + 39600 + rng.Uniform(3600)};
    codes.insert(tree->CodeForPoint(p, 6).ToString());
  }
  EXPECT_GE(codes.size(), 16u);
}

TEST(AnomalyQueryRegressionTest, ThresholdAboveDomainCapClampsToCap) {
  // Index-2 caps octets at 2 MB; the paper's alpha-flow query asks for
  // > 4,000,000 octets. Values above the cap are stored clamped, so the
  // query must clamp too (not produce an empty/inverted interval).
  AggregateRecord rec;
  rec.src_prefix = IpPrefix(0x0A010000, 16);
  rec.dst_prefix = IpPrefix(0x0A020000, 16);
  rec.window_start = 300;
  rec.octets = 10'000'000;  // above the 2 MB cap
  rec.flows = 3;
  rec.avg_flow_size = 1'000'000;
  auto t = ToIndex2Tuple(rec, 1);
  ASSERT_TRUE(t.has_value());
  PaperIndexOptions defaults;
  EXPECT_EQ(t->point[2], defaults.index2_max_octets);
  // A clamped query rectangle [cap, cap] contains the clamped tuple.
  Rect q({{0, 0xFFFFFFFFull},
          {0, 100000},
          {defaults.index2_max_octets, defaults.index2_max_octets}});
  EXPECT_TRUE(q.Contains(t->point));
}

}  // namespace
}  // namespace mind
