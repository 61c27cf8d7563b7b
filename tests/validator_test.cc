// Corruption-injection tests for the runtime invariant validators.
//
// Each test breaks one structural invariant through a test-only peek into
// private state, then asserts the matching validator reports that precise
// violation (matched by diagnostic substring). When MIND_VALIDATORS is off
// (the Release default) the same corrupted structures must validate OK —
// which is exactly what proves the validator bodies compile out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mind/mind_net.h"
#include "overlay_harness.h"
#include "sim/event_queue.h"
#include "space/cut_tree.h"
#include "space/histogram.h"
#include "storage/sorted_runs_backend.h"
#include "storage/tuple_store.h"
#include "storage/version_manager.h"
#include "util/validate.h"

namespace mind {

// ------------------------------------------------------------ test peeks
// Friends of the production classes; the only way tests reach private state.

class EventQueueTestPeek {
 public:
  static std::vector<uint32_t>& heap(EventQueue& q) { return q.heap_; }
  static auto& slots(EventQueue& q) { return q.slots_; }
  static size_t& live_count(EventQueue& q) { return q.live_count_; }
};

class CutTreeTestPeek {
 public:
  static auto& nodes(CutTree& t) { return t.nodes_; }
};

class TupleStoreTestPeek {
 public:
  static SortedRunsBackend& sorted(TupleStore& s) { return s.runs_; }
  static auto& base(TupleStore& s) { return sorted(s).base_; }
  static auto& delta(TupleStore& s) { return sorted(s).delta_; }
  static size_t& delta_sorted_len(TupleStore& s) {
    return sorted(s).delta_sorted_len_;
  }
  static auto& delta_keys(TupleStore& s) { return sorted(s).delta_.keys; }
  static auto& delta_points(TupleStore& s) { return sorted(s).delta_.points; }
  static auto& delta_ids(TupleStore& s) { return sorted(s).delta_.ids; }
  // Swaps entries i and j of a sorted run in all three columns at once, so
  // the run stays internally consistent and only its order is wrong.
  template <typename Run>
  static void SwapEntries(TupleStore& s, Run& run, size_t i, size_t j) {
    const size_t dims = sorted(s).dims_;
    std::swap(run.keys[i], run.keys[j]);
    std::swap(run.ids[i], run.ids[j]);
    std::swap_ranges(run.points.begin() + i * dims,
                     run.points.begin() + (i + 1) * dims,
                     run.points.begin() + j * dims);
  }
  static uint64_t& approx_bytes(TupleStore& s) { return s.approx_bytes_; }
};

class VersionManagerTestPeek {
 public:
  static auto& entries(IndexVersions& v) { return v.entries_; }
};

class OverlayTestPeek {
 public:
  static BitCode& code(OverlayNode& n) { return n.code_; }
  static auto& peers(OverlayNode& n) { return n.peers_; }
};

namespace {

// Validator-build expectation: the status reports `substr`; Release
// expectation: the corruption goes unnoticed (the check compiled out).
void ExpectViolation(const Status& st, const std::string& substr) {
  if (ValidatorsEnabled()) {
    ASSERT_FALSE(st.ok()) << "validator missed the injected corruption";
    EXPECT_NE(st.ToString().find(substr), std::string::npos)
        << "diagnostic \"" << st.ToString() << "\" lacks \"" << substr << "\"";
  } else {
    EXPECT_TRUE(st.ok()) << "validators are disabled but still fired: "
                         << st.ToString();
  }
}

TEST(ValidatorConfigTest, MacroAndConstantAgree) {
#if MIND_VALIDATORS_ENABLED
  EXPECT_TRUE(ValidatorsEnabled());
#else
  EXPECT_FALSE(ValidatorsEnabled());
#endif
}

// ------------------------------------------------------------ event queue

TEST(EventQueueValidatorTest, CleanQueuePasses) {
  EventQueue q;
  for (int i = 0; i < 20; ++i) q.Schedule(100 * (20 - i), [] {});
  EXPECT_TRUE(q.ValidateInvariants().ok());
  q.Run(10);
  EXPECT_TRUE(q.ValidateInvariants().ok());
}

TEST(EventQueueValidatorTest, DetectsHeapOrderViolation) {
  EventQueue q;
  q.Schedule(100, [] {});
  q.Schedule(200, [] {});
  q.Schedule(300, [] {});
  auto& heap = EventQueueTestPeek::heap(q);
  std::swap(heap[0], heap[2]);  // the t=300 slot now parents t=100
  ExpectViolation(q.ValidateInvariants(), "heap property violated");
}

TEST(EventQueueValidatorTest, DetectsLeakedSlot) {
  EventQueue q;
  q.Schedule(100, [] {});
  q.Schedule(200, [] {});
  EventQueueTestPeek::heap(q).pop_back();  // slot now on neither structure
  EventQueueTestPeek::live_count(q) = 1;   // keep counters self-consistent
  ExpectViolation(q.ValidateInvariants(), "leaked");
}

TEST(EventQueueValidatorTest, DetectsCounterDrift) {
  EventQueue q;
  q.Schedule(100, [] {});
  EventQueueTestPeek::live_count(q) = 2;
  ExpectViolation(q.ValidateInvariants(), "live_count_");
}

// -------------------------------------------------------------- cut tree

Schema TwoDimSchema() { return Schema({{"x", 0, 9999}, {"y", 0, 9999}}); }

CutTree BalancedTestTree(int depth = 3) {
  Schema schema = TwoDimSchema();
  Histogram h(schema, 8);
  for (Value x = 0; x < 10000; x += 97) {
    for (Value y = 0; y < 10000; y += 397) h.Add({x, y});
  }
  auto tree = CutTree::Balanced(schema, h, depth);
  MIND_CHECK_OK(tree.status());
  return std::move(tree).value();
}

TEST(CutTreeValidatorTest, WellFormedTreesPass) {
  EXPECT_TRUE(CutTree::Even(TwoDimSchema()).ValidateInvariants().ok());
  EXPECT_TRUE(BalancedTestTree().ValidateInvariants().ok());
}

TEST(CutTreeValidatorTest, DetectsSharedSubtree) {
  CutTree tree = BalancedTestTree();
  auto& nodes = CutTreeTestPeek::nodes(tree);
  ASSERT_GE(nodes[0].child0, 0);
  // Point a deeper link back at the root: the root is then reached twice
  // (and its region code is ambiguous), which must trip the visited check.
  nodes[static_cast<size_t>(nodes[0].child0)].child1 = 0;
  ExpectViolation(tree.ValidateInvariants(), "reachable twice");
}

TEST(CutTreeValidatorTest, DetectsOrphanNode) {
  CutTree tree = BalancedTestTree();
  auto& nodes = CutTreeTestPeek::nodes(tree);
  ASSERT_GE(nodes[0].child1, 0);
  nodes[0].child1 = -1;  // the whole high subtree becomes unreachable
  ExpectViolation(tree.ValidateInvariants(), "orphaned");
}

TEST(CutTreeValidatorTest, DetectsCutOutsideRegion) {
  CutTree tree = BalancedTestTree();
  auto& nodes = CutTreeTestPeek::nodes(tree);
  nodes[0].cut = 20000;  // beyond the whole domain on every dimension
  ExpectViolation(tree.ValidateInvariants(), "outside its region");
}

// ----------------------------------------------------------- tuple store

Tuple TwoDimTuple(Value x, Value y, uint64_t seq) {
  Tuple t;
  t.point = {x, y};
  t.extra = {x + y};
  t.origin = 1;
  t.seq = seq;
  return t;
}

TEST(TupleStoreValidatorTest, CleanStorePasses) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  for (uint64_t i = 0; i < 50; ++i) {
    store.Insert(TwoDimTuple(static_cast<Value>(i * 199 % 10000),
                             static_cast<Value>(i * 53 % 10000), i));
  }
  store.Compact();  // populate the base run...
  for (uint64_t i = 50; i < 80; ++i) {
    store.Insert(TwoDimTuple(static_cast<Value>(i * 199 % 10000),
                             static_cast<Value>(i * 53 % 10000), i));
  }
  (void)store.Query(Rect({{0, 9999}, {0, 9999}}));  // ...and sort the delta
  ASSERT_GT(TupleStoreTestPeek::base(store).size(), 0u);
  ASSERT_GT(TupleStoreTestPeek::delta(store).size(), 0u);
  EXPECT_TRUE(store.ValidateInvariants().ok());
}

TEST(TupleStoreValidatorTest, DetectsKeyPointMismatch) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));  // fresh inserts land in the delta
  // Move the point across the root cut: the filter would now test a point
  // the key no longer describes.
  TupleStoreTestPeek::delta_points(store)[0] = 9000;
  ExpectViolation(store.ValidateInvariants(), "under the installed cut tree");
}

TEST(TupleStoreValidatorTest, DetectsBaseRunOutOfOrder) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  for (uint64_t i = 0; i < 8; ++i) {
    store.Insert(TwoDimTuple(static_cast<Value>(i * 1200 % 10000),
                             static_cast<Value>(i * 777 % 10000), i));
  }
  store.Compact();
  auto& base = TupleStoreTestPeek::base(store);
  ASSERT_GE(base.size(), 2u);
  // Find two adjacent entries with distinct keys; swapping them must trip
  // the unconditional base-run order check.
  for (size_t i = 1; i < base.size(); ++i) {
    if (base.keys[i - 1] != base.keys[i]) {
      TupleStoreTestPeek::SwapEntries(store, base, i - 1, i);
      ExpectViolation(store.ValidateInvariants(), "base run claims sorted");
      return;
    }
  }
  FAIL() << "all 8 base keys collided; pick spreadier test points";
}

TEST(TupleStoreValidatorTest, DetectsDeltaFalselyClaimingSorted) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  store.Insert(TwoDimTuple(9000, 9100, 2));
  auto& delta = TupleStoreTestPeek::delta(store);
  ASSERT_EQ(delta.size(), 2u);
  ASSERT_NE(delta.keys[0], delta.keys[1]);
  if (delta.keys[0] < delta.keys[1]) {
    TupleStoreTestPeek::SwapEntries(store, delta, 0, 1);
  }
  TupleStoreTestPeek::delta_sorted_len(store) = 2;  // the lie under test
  ExpectViolation(store.ValidateInvariants(), "delta run claims sorted");
}

TEST(TupleStoreValidatorTest, DetectsByteAccountingDrift) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  TupleStoreTestPeek::approx_bytes(store) += 8;
  ExpectViolation(store.ValidateInvariants(), "approx_bytes_");
}

TEST(TupleStoreValidatorTest, DetectsKeyColumnDrift) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  // Probes search the key column while the filter reads the point column; a
  // key out of sync with its point returns wrong rows silently.
  TupleStoreTestPeek::delta_keys(store)[0] ^= uint64_t{1} << 62;
  ExpectViolation(store.ValidateInvariants(), "key column entry");
}

TEST(TupleStoreValidatorTest, DetectsKeyColumnLengthDrift) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  store.Insert(TwoDimTuple(300, 400, 2));
  TupleStoreTestPeek::delta_keys(store).pop_back();
  ExpectViolation(store.ValidateInvariants(), "key column holds");
}

TEST(TupleStoreValidatorTest, DetectsPointColumnLengthDrift) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  store.Insert(TwoDimTuple(300, 400, 2));
  // One coordinate short: every later point would be read at the wrong
  // stride.
  TupleStoreTestPeek::delta_points(store).pop_back();
  ExpectViolation(store.ValidateInvariants(), "point column holds");
}

TEST(TupleStoreValidatorTest, DetectsRowIdDrift) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  store.Insert(TwoDimTuple(300, 400, 2));
  // Two entries naming one row: a match would return the wrong carried
  // values, and the other row could never be returned.
  auto& ids = TupleStoreTestPeek::delta_ids(store);
  ids[1] = ids[0];
  ExpectViolation(store.ValidateInvariants(), "already indexed");
}

TEST(TupleStoreValidatorTest, DetectsSortedPrefixOverrun) {
  TupleStore store(std::make_shared<CutTree>(CutTree::Even(TwoDimSchema())), 24);
  store.Insert(TwoDimTuple(100, 200, 1));
  TupleStoreTestPeek::delta_sorted_len(store) = 2;  // one past the delta's end
  ExpectViolation(store.ValidateInvariants(), "sorted prefix");
}

// ------------------------------------------------------- version manager

TEST(VersionManagerValidatorTest, DetectsCutTreeDesync) {
  IndexVersions versions(24);
  auto cuts = std::make_shared<CutTree>(CutTree::Even(TwoDimSchema()));
  ASSERT_TRUE(versions.AddVersion(1, cuts, 0).ok());
  ASSERT_NE(versions.Store(1), nullptr);  // materialize the lazy store
  EXPECT_TRUE(versions.ValidateInvariants().ok());
  // Swap the chain's recorded tree for a distinct (even identical) instance:
  // queries would now be coded under a different object than the stored rows.
  VersionManagerTestPeek::entries(versions)[0].cuts =
      std::make_shared<CutTree>(CutTree::Even(TwoDimSchema()));
  ExpectViolation(versions.ValidateInvariants(), "desynced from its store");
}

TEST(VersionManagerValidatorTest, DetectsNonMonotonicVersions) {
  IndexVersions versions(24);
  auto cuts = std::make_shared<CutTree>(CutTree::Even(TwoDimSchema()));
  ASSERT_TRUE(versions.AddVersion(1, cuts, 0).ok());
  ASSERT_TRUE(versions.AddVersion(2, cuts, 100).ok());
  auto& entries = VersionManagerTestPeek::entries(versions);
  std::swap(entries[0], entries[1]);
  ExpectViolation(versions.ValidateInvariants(), "not strictly increasing");
}

// ---------------------------------------------------------- overlay fleet

TEST(OverlayValidatorTest, QuiescentFleetPasses) {
  OverlayFleet fleet = BuildOverlay(12, OverlayOptions{});
  ASSERT_EQ(fleet.JoinedCount(), fleet.size());
  EXPECT_TRUE(fleet.Validate().ok());
  EXPECT_TRUE(fleet.sim->events().ValidateInvariants().ok());
}

TEST(OverlayValidatorTest, DetectsDuplicateCode) {
  OverlayFleet fleet = BuildOverlay(8, OverlayOptions{});
  ASSERT_EQ(fleet.JoinedCount(), fleet.size());
  OverlayTestPeek::code(fleet[2]) = fleet[1].code();
  ExpectViolation(fleet.Validate(), "duplicate code");
}

TEST(OverlayValidatorTest, DetectsCoverGap) {
  OverlayFleet fleet = BuildOverlay(8, OverlayOptions{});
  ASSERT_EQ(fleet.JoinedCount(), fleet.size());
  // Narrow one node's region without anyone claiming the vacated half.
  OverlayTestPeek::code(fleet[3]) = fleet[3].code().Child(0);
  ExpectViolation(fleet.Validate(), "uncovered");
}

TEST(OverlayValidatorTest, DetectsSiblingLinkAsymmetry) {
  OverlayFleet fleet = BuildOverlay(8, OverlayOptions{});
  ASSERT_EQ(fleet.JoinedCount(), fleet.size());
  // Find a node whose exact sibling is another fleet member, then delete the
  // reverse edge from that sibling's peer table.
  for (size_t i = 0; i < fleet.size(); ++i) {
    const BitCode sib_code = fleet[i].code().Sibling();
    for (size_t j = 0; j < fleet.size(); ++j) {
      if (i == j || fleet[j].code() != sib_code) continue;
      auto& sib_peers = OverlayTestPeek::peers(fleet[j]);
      if (sib_peers.erase(fleet[i].id()) == 0) continue;
      ExpectViolation(fleet.Validate(), "sibling link asymmetric");
      return;
    }
  }
  FAIL() << "no sibling pair found in an 8-node overlay";
}

// --------------------------------------------- whole-net digest stability

uint64_t RunSmallScenario(uint64_t seed) {
  MindNetOptions mopts;
  mopts.sim.seed = seed;
  MindNet net(9, mopts);
  net.EnablePeriodicValidation(FromSeconds(5));
  MIND_CHECK_OK(net.Build());

  IndexDef def;
  def.name = "probe_idx";
  def.schema = Schema({{"x", 0, 9999}, {"y", 0, 9999}});
  def.time_attr = -1;
  MIND_CHECK_OK(net.CreateIndexEverywhere(
      def, std::make_shared<CutTree>(CutTree::Even(def.schema)), 1, 0));

  Rng rng(seed + 13);
  for (uint64_t i = 0; i < 200; ++i) {
    Tuple t;
    t.point = {rng.Uniform(10000), rng.Uniform(10000)};
    t.origin = static_cast<NodeId>(i % net.size());
    t.seq = i;
    MIND_CHECK_OK(net.node(i % net.size()).Insert("probe_idx", t));
    if (i % 25 == 0) net.sim().RunFor(FromSeconds(1));
  }
  net.sim().RunFor(FromSeconds(30));
  MIND_CHECK_OK(net.ValidateInvariants(/*quiescent=*/true));
  return net.StateDigest();
}

TEST(StateDigestTest, IdenticalScenariosDigestIdentically) {
  EXPECT_EQ(RunSmallScenario(4242), RunSmallScenario(4242));
}

TEST(StateDigestTest, DifferentSeedsDigestDifferently) {
  EXPECT_NE(RunSmallScenario(4242), RunSmallScenario(4243));
}

}  // namespace
}  // namespace mind
