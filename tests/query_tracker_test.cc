#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mind/messages.h"
#include "mind/query_tracker.h"
#include "space/histogram.h"
#include "util/rng.h"

namespace mind {
namespace {

Schema TwoDim() { return Schema({{"x", 0, 999}, {"y", 0, 999}}); }

CutTreeRef Cuts() {
  return std::make_shared<CutTree>(CutTree::Even(TwoDim()));
}

Tuple T(uint64_t seq, int origin = 0) {
  Tuple t;
  t.point = {1, 1};
  t.origin = origin;
  t.seq = seq;
  return t;
}

// A reply's rows.
TupleColumns Rows(const std::vector<Tuple>& tuples) {
  TupleColumns rows;
  rows.dims = 2;
  for (const Tuple& t : tuples) rows.Append(t);
  return rows;
}

TEST(QueryTrackerTest, SingleReplyCoveringRootCompletes) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  EXPECT_FALSE(tracker.IsComplete());
  tracker.AddReply(3, BitCode(), Rows({T(1)}));
  EXPECT_TRUE(tracker.IsComplete());
  EXPECT_EQ(tracker.rows().size(), 1u);
  EXPECT_EQ(tracker.responders(), std::vector<NodeId>{3});
}

TEST(QueryTrackerTest, BothChildrenNeededWhenQueryStraddles) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("0"), {});
  EXPECT_FALSE(tracker.IsComplete()) << "half the space is unanswered";
  tracker.AddReply(2, BitCode::FromString("1"), {});
  EXPECT_TRUE(tracker.IsComplete());
}

TEST(QueryTrackerTest, NonIntersectingBranchesAreVacuouslyCovered) {
  // Query confined to the low-x half: only the "0" branch needs replies.
  Rect q({{0, 100}, {0, 999}});
  QueryTracker tracker(q, BitCode::FromString("0"), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("0"), Rows({T(1)}));
  EXPECT_TRUE(tracker.IsComplete());
}

TEST(QueryTrackerTest, DeepSplitsAssembleCoverage) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  // Replies at mixed depths: 00, 01, 1 cover everything.
  tracker.AddReply(1, BitCode::FromString("00"), {});
  tracker.AddReply(2, BitCode::FromString("01"), {});
  EXPECT_FALSE(tracker.IsComplete());
  tracker.AddReply(3, BitCode::FromString("1"), {});
  EXPECT_TRUE(tracker.IsComplete());
}

TEST(QueryTrackerTest, SupplementalRepliesNeverComplete) {
  // Regression guard at the unit level: non-authoritative replies merge
  // tuples but must not cover regions (see EXPERIMENTS.md findings).
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode(), Rows({T(1)}), /*authoritative=*/false);
  EXPECT_FALSE(tracker.IsComplete());
  EXPECT_EQ(tracker.rows().size(), 1u);  // but the data is kept
  tracker.AddReply(2, BitCode(), {}, /*authoritative=*/true);
  EXPECT_TRUE(tracker.IsComplete());
}

TEST(QueryTrackerTest, DuplicateTuplesFromReplicasDeduplicated) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("0"), Rows({T(7, 2), T(8, 2)}));
  // A replica's copy.
  tracker.AddReply(2, BitCode::FromString("1"), Rows({T(7, 2)}));
  EXPECT_EQ(tracker.rows().size(), 2u);
  // Same seq from a different origin is a distinct tuple.
  tracker.AddReply(3, BitCode::FromString("1"), Rows({T(7, 5)}));
  EXPECT_EQ(tracker.rows().size(), 3u);
}

TEST(QueryTrackerTest, PositiveRespondersTracked) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("0"), {});        // negative
  tracker.AddReply(2, BitCode::FromString("1"), Rows({T(1)}));  // positive
  EXPECT_EQ(tracker.responders(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(tracker.positive_responders(), std::vector<NodeId>{2});
}

TEST(QueryTrackerTest, ParentReplySubsumesChildGaps) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("00"), {});
  // A later, shallower reply ("0") covers the sibling "01" too.
  tracker.AddReply(2, BitCode::FromString("0"), {});
  tracker.AddReply(3, BitCode::FromString("1"), {});
  EXPECT_TRUE(tracker.IsComplete());
}

TEST(QueryTrackerTest, IncompleteWideQueryStaysIncomplete) {
  // Missing one deep region keeps the tracker (and thus the query) open.
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 8);
  tracker.AddReply(1, BitCode::FromString("0"), {});
  tracker.AddReply(2, BitCode::FromString("10"), {});
  tracker.AddReply(3, BitCode::FromString("110"), {});
  EXPECT_FALSE(tracker.IsComplete());  // "111" unanswered
  tracker.AddReply(4, BitCode::FromString("111"), {});
  EXPECT_TRUE(tracker.IsComplete());
}

// The 5-dimensional line query of the budget tests: the full range of a0,
// a single value on every other attribute, split down to 60 bits so each of
// the 4096 leaves along the line holds one a0 value.
struct LineQuery {
  CutTreeRef cuts;
  Rect rect;

  LineQuery() {
    std::vector<AttributeDef> attrs;
    for (int d = 0; d < 5; ++d) {
      // Not "a" + ...: gcc 12 -Wrestrict false positive.
      std::string name = "a";
      name += std::to_string(d);
      attrs.push_back({name, 0, (1u << 12) - 1});
    }
    cuts = std::make_shared<CutTree>(CutTree::Even(Schema(attrs)));
    std::vector<Interval> ivs(5, Interval{0, 0});
    ivs[0] = {0, (1u << 12) - 1};
    rect = Rect(ivs);
  }

  BitCode Leaf(Value x) const {
    Point p(5, 0);
    p[0] = x;
    return cuts->CodeForPoint(p, 60);
  }
};

TEST(QueryTrackerTest, ExhaustedCoverBudgetIsCounted) {
  // A line query through a 5-dimensional space: every fifth split level
  // doubles the codes the line crosses and the other four each leave a
  // vacuous sibling, so a completeness check explores ~10 codes per answered
  // leaf. With the first 2500 leaves along the line answered, the check runs
  // out of its exploration budget before it meets an unanswered one.
  LineQuery line;
  telemetry::MetricsRegistry metrics;
  QueryTracker tracker(line.rect, BitCode(), line.cuts, 60, &metrics);
  EXPECT_FALSE(tracker.IsComplete());  // stops at the first unanswered leaf
  for (Value x = 0; x < 2500; ++x) tracker.AddReply(1, line.Leaf(x), {});
  EXPECT_FALSE(tracker.IsComplete());
  EXPECT_EQ(metrics.counter("mind.query.cover_budget_exhausted").value(), 1u);
}

TEST(QueryTrackerTest, LineAnsweredLeafByLeafCompletes) {
  // Regression guard against a completion check that re-walks the cover from
  // the root on every reply: that walk grows with the answered leaves, runs
  // out of budget once ~2000 are in, and never completes the query. A
  // resumed walk examines each code about once over the query's lifetime.
  LineQuery line;
  telemetry::MetricsRegistry metrics;
  QueryTracker tracker(line.rect, BitCode(), line.cuts, 60, &metrics);
  for (Value x = 0; x < (1u << 12); ++x) {
    ASSERT_FALSE(tracker.IsComplete()) << "before leaf " << x;
    tracker.AddReply(1, line.Leaf(x), {});
  }
  EXPECT_TRUE(tracker.IsComplete());
  EXPECT_EQ(metrics.counter("mind.query.cover_budget_exhausted").value(), 0u);
}

// The completion check as a recursive walk from `code` over the replies
// received so far: the semantics the resumable walk must reproduce on every
// call. `budget` counts the codes visited; the test requires that it never
// runs out, so every answer of the oracle is exact.
bool OracleCovered(const CutTree& cuts, const Rect& query,
                   const std::vector<BitCode>& covered, int max_split_len,
                   const BitCode& code, int* budget) {
  if (--(*budget) < 0) return false;
  for (const auto& c : covered) {
    if (c.IsPrefixOf(code)) return true;
  }
  auto rect = cuts.RectForCode(code);
  if (!rect.has_value() || !rect->Intersects(query)) return true;  // vacuous
  if (code.length() >= max_split_len) return false;
  return OracleCovered(cuts, query, covered, max_split_len, code.Child(0),
                       budget) &&
         OracleCovered(cuts, query, covered, max_split_len, code.Child(1),
                       budget);
}

// Random cut tree over 2-5 dims; about one schema in three has a
// single-value attribute, whose midpoint cuts leave an empty high side.
CutTreeRef RandomCuts(Rng* rng, bool* balanced) {
  const int dims = 2 + static_cast<int>(rng->Uniform(4));
  const size_t constant_dim =
      rng->Uniform(3) == 0 ? rng->Uniform(dims) : static_cast<size_t>(dims);
  std::vector<AttributeDef> attrs;
  for (int d = 0; d < dims; ++d) {
    std::string name = "d";
    name += std::to_string(d);
    const Value lo = rng->Uniform(50);
    const Value hi = static_cast<size_t>(d) == constant_dim
                         ? lo
                         : lo + 1 + rng->Uniform(1u << (4 + rng->Uniform(12)));
    attrs.push_back({name, lo, hi});
  }
  Schema schema(attrs);
  *balanced = rng->Bernoulli(0.5);
  if (!*balanced) return std::make_shared<CutTree>(CutTree::Even(schema));
  Histogram hist(schema, 8);
  const Rect space = Rect::FullSpace(schema);
  for (int i = 0; i < 300; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) {
      // Skewed towards the low end of each attribute.
      const Interval iv = space.interval(d);
      const Value span = iv.hi - iv.lo;
      p[d] = iv.lo +
             rng->Uniform(rng->Bernoulli(0.7) ? span / 8 + 1 : span + 1);
    }
    hist.Add(p);
  }
  auto tree =
      CutTree::Balanced(schema, hist, static_cast<int>(rng->Uniform(7)));
  MIND_CHECK(tree.ok());
  return std::make_shared<CutTree>(std::move(*tree));
}

Rect RandomQuery(Rng* rng, const Schema& schema) {
  const Rect space = Rect::FullSpace(schema);
  std::vector<Interval> ivs;
  for (int d = 0; d < schema.dims(); ++d) {
    const Interval iv = space.interval(d);
    Value a = rng->UniformRange(iv.lo, iv.hi);
    Value b = rng->Bernoulli(0.5) ? a + rng->Uniform((iv.hi - a) / 4 + 1)
                                  : rng->UniformRange(iv.lo, iv.hi);
    if (a > b) std::swap(a, b);
    ivs.push_back({a, b});
  }
  return Rect(ivs);
}

// A set of codes that answers the query completely, as resolvers would:
// each intersecting subtree is answered whole or split further, and splits
// stop at `max_split_len`.
void RandomAnswer(Rng* rng, const CutTree& cuts, const Rect& query,
                  int max_split_len, const BitCode& code,
                  std::vector<BitCode>* out) {
  if (code.length() >= max_split_len || rng->Bernoulli(0.3)) {
    out->push_back(code);
    return;
  }
  for (const auto& child : cuts.IntersectingChildren(query, code)) {
    RandomAnswer(rng, cuts, query, max_split_len, child, out);
  }
}

struct Reply {
  BitCode code;
  bool authoritative = true;
};

TEST(QueryTrackerTest, ResumedWalkAgreesWithRecursiveWalk) {
  Rng rng(2207);
  int completed = 0, incomplete = 0, nonempty_roots = 0, balanced_trees = 0;
  for (int trial = 0; trial < 400; ++trial) {
    bool balanced = false;
    CutTreeRef cuts = RandomCuts(&rng, &balanced);
    balanced_trees += balanced;
    const Rect query = RandomQuery(&rng, cuts->schema());
    const BitCode minimal = cuts->MinimalContainingCode(query, 24);
    // Usually the minimal containing code; sometimes a shorter prefix.
    const int root_len =
        rng.Bernoulli(0.7)
            ? minimal.length()
            : static_cast<int>(rng.Uniform(minimal.length() + 1));
    const BitCode root = minimal.Prefix(root_len);
    nonempty_roots += root.length() > 0;
    const int max_split_len =
        root.length() + 1 + static_cast<int>(rng.Uniform(9));

    std::vector<BitCode> answer;
    RandomAnswer(&rng, *cuts, query, max_split_len, root, &answer);
    std::vector<Reply> replies;
    for (const auto& code : answer) {
      // A fraction of the answer goes missing, so some queries stay open.
      if (rng.Bernoulli(0.05)) continue;
      replies.push_back({code});
      if (rng.Bernoulli(0.2)) replies.push_back({code});  // replica answer
    }
    for (size_t i = replies.size(); i > 1; --i) {
      std::swap(replies[i - 1], replies[rng.Uniform(i)]);
    }
    // Deeper codes that arrive before the shallower reply covering them,
    // down to two levels past `max_split_len` (no resolver splits that far,
    // and the check must not count them towards a leaf's coverage).
    for (size_t i = 0; i < replies.size(); ++i) {
      const BitCode& code = replies[i].code;
      if (!rng.Bernoulli(0.2)) continue;
      BitCode deeper = code;
      const int extra =
          1 + static_cast<int>(rng.Uniform(max_split_len + 2 - code.length()));
      for (int b = 0; b < extra; ++b) {
        deeper.PushBack(static_cast<int>(rng.Uniform(2)));
      }
      const auto at = static_cast<long>(rng.Uniform(i + 1));
      replies.insert(replies.begin() + at, {deeper});
      ++i;
    }
    // Supplemental replies carry tuples but no coverage; they may name any
    // code, the root included.
    const size_t supplemental = rng.Uniform(3);
    for (size_t i = 0; i < supplemental; ++i) {
      const BitCode& code = answer[rng.Uniform(answer.size())];
      const auto len = static_cast<int>(
          rng.UniformRange(root.length(), code.length()));
      const auto at = static_cast<long>(rng.Uniform(replies.size() + 1));
      replies.insert(replies.begin() + at, {code.Prefix(len), false});
    }

    telemetry::MetricsRegistry metrics;
    QueryTracker tracker(query, root, cuts, max_split_len, &metrics);
    std::vector<BitCode> covered;
    bool expected = false;
    auto check = [&](size_t step) {
      int budget = 20000;
      expected =
          OracleCovered(*cuts, query, covered, max_split_len, root, &budget);
      ASSERT_GE(budget, 0) << "oracle walk out of budget; trial " << trial;
      // Several calls with no reply in between must keep agreeing.
      const int calls = 1 + static_cast<int>(rng.Uniform(3));
      for (int c = 0; c < calls; ++c) {
        ASSERT_EQ(tracker.IsComplete(), expected)
            << "trial " << trial << " after " << step << " replies, call " << c
            << "; query " << query.ToString() << ", root " << root.ToString();
      }
    };
    check(0);
    for (size_t i = 0; i < replies.size(); ++i) {
      tracker.AddReply(static_cast<NodeId>(i), replies[i].code, {},
                       replies[i].authoritative);
      if (replies[i].authoritative) covered.push_back(replies[i].code);
      check(i + 1);
      if (HasFatalFailure()) return;
    }
    (expected ? completed : incomplete) += 1;
    EXPECT_EQ(metrics.counter("mind.query.cover_budget_exhausted").value(), 0u);
  }
  // The generator must exercise both outcomes and the root/tree variants.
  EXPECT_GT(completed, 100);
  EXPECT_GT(incomplete, 5);
  EXPECT_GT(nonempty_roots, 100);
  EXPECT_GT(balanced_trees, 100);
}

// Replies as columns must cost the wire what the same rows cost as Tuples,
// and the trackers' merge must return what merging Tuple replies returned:
// per tracker, first-seen rows in arrival order; across versions, a row an
// earlier version returned dropped. Random replies over 2-5 dims with 0-3
// carried values per row and colliding (origin, seq) pairs whose copies
// differ, so keeping any copy but the first shows.
TEST(ReplyColumnsPropertyTest, WireSizeAndMergeMatchTupleReplies) {
  Rng rng(2604);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const size_t dims = 2 + rng.Uniform(4);
    std::vector<AttributeDef> attrs;
    for (size_t d = 0; d < dims; ++d) {
      std::string name = "d";
      name += std::to_string(d);
      attrs.push_back({name, 0, 999});
    }
    const Schema schema(attrs);
    auto cuts = std::make_shared<CutTree>(CutTree::Even(schema));
    const Rect space = Rect::FullSpace(schema);
    std::map<VersionId, QueryTracker> trackers;
    // The merge as Tuple replies did it: per version, a seen-set and a
    // vector; then one pass over the versions in order.
    std::map<VersionId, std::vector<Tuple>> old_kept;
    std::map<VersionId, std::unordered_set<uint64_t>> old_seen;
    const VersionId versions = 1 + static_cast<VersionId>(rng.Uniform(3));
    for (VersionId v = 1; v <= versions; ++v) {
      trackers.emplace(v, QueryTracker(space, BitCode(), cuts, 16));
    }
    const int replies = static_cast<int>(rng.Uniform(6));
    for (int r = 0; r < replies; ++r) {
      const VersionId v = 1 + static_cast<VersionId>(rng.Uniform(versions));
      QueryReplyMsg reply;
      reply.rows.dims = dims;
      size_t old_bytes = 48;
      const size_t n = rng.Uniform(12);
      for (size_t i = 0; i < n; ++i) {
        Tuple t;
        for (size_t d = 0; d < dims; ++d) t.point.push_back(rng.Uniform(1000));
        t.extra.resize(rng.Uniform(4));
        for (Value& e : t.extra) e = rng.Uniform(1u << 20);
        t.origin = static_cast<int>(rng.Uniform(3));
        t.seq = rng.Uniform(10);
        old_bytes += t.WireBytes();
        if (old_seen[v].insert(TupleKey(t)).second) old_kept[v].push_back(t);
        reply.rows.Append(t);
      }
      ASSERT_EQ(reply.SizeBytes(), old_bytes);
      trackers.at(v).AddReply(static_cast<NodeId>(r), reply.covered,
                              reply.rows);
    }
    std::vector<Tuple> expect;
    std::unordered_set<uint64_t> seen;
    for (const auto& [v, kept] : old_kept) {
      for (const Tuple& t : kept) {
        if (versions == 1 || seen.insert(TupleKey(t)).second) {
          expect.push_back(t);
        }
      }
    }
    for (const auto& [v, tracker] : trackers) {
      EXPECT_EQ(tracker.rows().size(), old_kept[v].size()) << "version " << v;
    }
    EXPECT_EQ(MergeResults(trackers), expect);
  }
}

}  // namespace
}  // namespace mind
