#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mind/query_tracker.h"

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

TEST(QueryTrackerTest, SingleReplyCoveringRootCompletes) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  EXPECT_FALSE(tracker.IsComplete());
  tracker.AddReply(3, BitCode(), {T(1)});
  EXPECT_TRUE(tracker.IsComplete());
  EXPECT_EQ(tracker.tuples().size(), 1u);
  EXPECT_EQ(tracker.responders().count(3), 1u);
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
  tracker.AddReply(1, BitCode::FromString("0"), {T(1)});
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
  tracker.AddReply(1, BitCode(), {T(1)}, /*authoritative=*/false);
  EXPECT_FALSE(tracker.IsComplete());
  EXPECT_EQ(tracker.tuples().size(), 1u);  // but the data is kept
  tracker.AddReply(2, BitCode(), {}, /*authoritative=*/true);
  EXPECT_TRUE(tracker.IsComplete());
}

TEST(QueryTrackerTest, DuplicateTuplesFromReplicasDeduplicated) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("0"), {T(7, 2), T(8, 2)});
  tracker.AddReply(2, BitCode::FromString("1"), {T(7, 2)});  // replica copy
  EXPECT_EQ(tracker.tuples().size(), 2u);
  // Same seq from a different origin is a distinct tuple.
  tracker.AddReply(3, BitCode::FromString("1"), {T(7, 5)});
  EXPECT_EQ(tracker.tuples().size(), 3u);
}

TEST(QueryTrackerTest, PositiveRespondersTracked) {
  Rect q({{0, 999}, {0, 999}});
  QueryTracker tracker(q, BitCode(), Cuts(), 16);
  tracker.AddReply(1, BitCode::FromString("0"), {});        // negative
  tracker.AddReply(2, BitCode::FromString("1"), {T(1)});    // positive
  EXPECT_EQ(tracker.responders().size(), 2u);
  EXPECT_EQ(tracker.positive_responders().size(), 1u);
  EXPECT_EQ(tracker.positive_responders().count(2), 1u);
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

TEST(QueryTrackerTest, ExhaustedCoverBudgetIsCounted) {
  // A line query through a 5-dimensional space: every fifth split level
  // doubles the codes the line crosses and the other four each leave a
  // vacuous sibling, so a completeness check explores ~10 codes per answered
  // leaf. With the first 2500 leaves along the line answered, the check runs
  // out of its exploration budget before it meets an unanswered one.
  std::vector<AttributeDef> attrs;
  for (int d = 0; d < 5; ++d) {
    std::string name = "a";  // not "a" + ...: gcc 12 -Wrestrict false positive
    name += std::to_string(d);
    attrs.push_back({name, 0, (1u << 12) - 1});
  }
  auto cuts = std::make_shared<CutTree>(CutTree::Even(Schema(attrs)));
  std::vector<Interval> ivs(5, Interval{0, 0});
  ivs[0] = {0, (1u << 12) - 1};
  telemetry::MetricsRegistry metrics;
  QueryTracker tracker(Rect(ivs), BitCode(), cuts, 60, &metrics);
  EXPECT_FALSE(tracker.IsComplete());  // stops at the first unanswered leaf
  for (Value x = 0; x < 2500; ++x) {
    Point p(5, 0);
    p[0] = x;
    tracker.AddReply(1, cuts->CodeForPoint(p, 60), {});
  }
  EXPECT_FALSE(tracker.IsComplete());
#ifndef MIND_TELEMETRY_DISABLED
  EXPECT_EQ(metrics.counter("mind.query.cover_budget_exhausted").value(), 1u);
#endif
}

}  // namespace
}  // namespace mind
