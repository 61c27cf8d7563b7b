#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <type_traits>

#include "space/cut_tree.h"
#include "space/histogram.h"
#include "space/mismatch.h"
#include "space/rect.h"
#include "space/schema.h"
#include "util/rng.h"

namespace mind {
namespace {

Schema MakeSchema3() {
  return Schema({{"x", 0, 999}, {"y", 0, 999}, {"z", 0, 999}});
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, ValidateAcceptsGood) {
  EXPECT_TRUE(MakeSchema3().Validate().ok());
}

TEST(SchemaTest, ValidateRejectsBad) {
  EXPECT_TRUE(Schema(std::vector<AttributeDef>{}).Validate().IsInvalidArgument());
  EXPECT_TRUE(Schema({{"", 0, 1}}).Validate().IsInvalidArgument());
  EXPECT_TRUE(Schema({{"a", 0, 1}, {"a", 0, 1}}).Validate().IsInvalidArgument());
  EXPECT_TRUE(Schema({{"a", 5, 4}}).Validate().IsInvalidArgument());
}

TEST(SchemaTest, FindAttr) {
  Schema s = MakeSchema3();
  EXPECT_EQ(s.FindAttr("y"), 1);
  EXPECT_EQ(s.FindAttr("nope"), -1);
}

TEST(SchemaTest, ClampAndContains) {
  Schema s({{"a", 10, 20}});
  EXPECT_EQ(s.Clamp({5})[0], 10u);
  EXPECT_EQ(s.Clamp({25})[0], 20u);
  EXPECT_EQ(s.Clamp({15})[0], 15u);
  EXPECT_TRUE(s.Contains({15}));
  EXPECT_FALSE(s.Contains({5}));
  EXPECT_FALSE(s.Contains({15, 15}));  // wrong arity
}

// ---------------------------------------------------------------- Rect

TEST(RectTest, FullSpaceMatchesSchema) {
  Schema s = MakeSchema3();
  Rect r = Rect::FullSpace(s);
  EXPECT_EQ(r.dims(), 3);
  EXPECT_EQ(r.interval(0).lo, 0u);
  EXPECT_EQ(r.interval(2).hi, 999u);
}

TEST(RectTest, ContainsPoint) {
  Rect r({{0, 10}, {5, 5}});
  EXPECT_TRUE(r.Contains(Point{3, 5}));
  EXPECT_TRUE(r.Contains(Point{0, 5}));
  EXPECT_TRUE(r.Contains(Point{10, 5}));  // inclusive bounds
  EXPECT_FALSE(r.Contains(Point{11, 5}));
  EXPECT_FALSE(r.Contains(Point{3, 6}));
}

TEST(RectTest, IntersectionLogic) {
  Rect a({{0, 10}, {0, 10}});
  Rect b({{5, 15}, {8, 20}});
  ASSERT_TRUE(a.Intersects(b));
  auto c = a.Intersect(b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->interval(0).lo, 5u);
  EXPECT_EQ(c->interval(0).hi, 10u);
  EXPECT_EQ(c->interval(1).lo, 8u);
  EXPECT_EQ(c->interval(1).hi, 10u);

  Rect d({{11, 12}, {0, 10}});
  EXPECT_FALSE(a.Intersects(d));
  EXPECT_FALSE(a.Intersect(d).has_value());
  // Touching at a single value counts (inclusive).
  Rect e({{10, 12}, {10, 12}});
  EXPECT_TRUE(a.Intersects(e));
}

TEST(RectTest, ContainsRect) {
  Rect a({{0, 10}, {0, 10}});
  EXPECT_TRUE(a.Contains(Rect({{2, 8}, {0, 10}})));
  EXPECT_FALSE(a.Contains(Rect({{2, 11}, {0, 10}})));
  EXPECT_TRUE(a.Contains(a));
}

TEST(IntervalTest, SizeSaturates) {
  Interval full{0, UINT64_MAX};
  EXPECT_EQ(full.Size(), UINT64_MAX);
  Interval one{7, 7};
  EXPECT_EQ(one.Size(), 1u);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, BinMappingCoversDomain) {
  Schema s({{"a", 0, 99}});
  Histogram h(s, 10);
  EXPECT_EQ(h.BinOf(0, 0), 0);
  EXPECT_EQ(h.BinOf(0, 9), 0);
  EXPECT_EQ(h.BinOf(0, 10), 1);
  EXPECT_EQ(h.BinOf(0, 99), 9);
  EXPECT_EQ(h.BinOf(0, 12345), 9);  // clamped
  EXPECT_EQ(h.BinLo(0, 0), 0u);
  EXPECT_EQ(h.BinHi(0, 0), 9u);
  EXPECT_EQ(h.BinLo(0, 9), 90u);
  EXPECT_EQ(h.BinHi(0, 9), 99u);
}

TEST(HistogramTest, BinMappingFullUint64Domain) {
  Schema s({{"a", 0, UINT64_MAX}});
  Histogram h(s, 4);
  EXPECT_EQ(h.BinOf(0, 0), 0);
  EXPECT_EQ(h.BinOf(0, UINT64_MAX), 3);
  EXPECT_EQ(h.BinOf(0, UINT64_MAX / 2), 1);
  EXPECT_EQ(h.BinHi(0, 3), UINT64_MAX);
}

TEST(HistogramTest, AddAndCellMass) {
  Schema s({{"a", 0, 99}, {"b", 0, 99}});
  Histogram h(s, 10);
  h.Add({5, 5});
  h.Add({5, 7}, 2.0);
  h.Add({95, 95});
  EXPECT_DOUBLE_EQ(h.total_mass(), 4.0);
  EXPECT_DOUBLE_EQ(h.CellMass({0, 0}), 3.0);
  EXPECT_DOUBLE_EQ(h.CellMass({9, 9}), 1.0);
  EXPECT_DOUBLE_EQ(h.CellMass({5, 5}), 0.0);
  EXPECT_EQ(h.num_nonzero_cells(), 2u);
}

TEST(HistogramTest, MergeRequiresSameShape) {
  Schema s({{"a", 0, 99}});
  Histogram h1(s, 10), h2(s, 10), h3(s, 5);
  h1.Add({5});
  h2.Add({95});
  EXPECT_TRUE(h1.Merge(h2).ok());
  EXPECT_DOUBLE_EQ(h1.total_mass(), 2.0);
  EXPECT_TRUE(h1.Merge(h3).IsInvalidArgument());
  Histogram h4(Schema({{"b", 0, 99}}), 10);
  EXPECT_TRUE(h1.Merge(h4).IsInvalidArgument());
}

TEST(HistogramTest, MassInRectExactOnCellBoundaries) {
  Schema s({{"a", 0, 99}});
  Histogram h(s, 10);
  for (int i = 0; i < 100; ++i) h.Add({static_cast<Value>(i)});
  EXPECT_NEAR(h.MassInRect(Rect({{0, 99}})), 100.0, 1e-9);
  EXPECT_NEAR(h.MassInRect(Rect({{0, 49}})), 50.0, 1e-9);
  // Half of one bin, interpolated.
  EXPECT_NEAR(h.MassInRect(Rect({{0, 4}})), 5.0, 1e-9);
}

TEST(HistogramTest, WeightedCellCentersDeterministicOrder) {
  Schema s({{"a", 0, 99}, {"b", 0, 99}});
  Histogram h(s, 10);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    h.Add({rng.Uniform(100), rng.Uniform(100)});
  }
  auto c1 = h.WeightedCellCenters();
  auto c2 = h.WeightedCellCenters();
  EXPECT_EQ(c1, c2);
  double total = 0;
  for (auto& [p, m] : c1) total += m;
  EXPECT_NEAR(total, 200.0, 1e-9);
}

// ---------------------------------------------------------------- Mismatch

TEST(MismatchTest, IdenticalIsZero) {
  Schema s({{"a", 0, 99}});
  Histogram h1(s, 10), h2(s, 10);
  for (int i = 0; i < 50; ++i) {
    h1.Add({static_cast<Value>(i)});
    h2.Add({static_cast<Value>(i)});
  }
  EXPECT_NEAR(MismatchFraction(h1, h2).value(), 0.0, 1e-12);
  EXPECT_NEAR(MismatchTuples(h1, h2).value(), 0.0, 1e-12);
}

TEST(MismatchTest, DisjointIsOne) {
  Schema s({{"a", 0, 99}});
  Histogram h1(s, 10), h2(s, 10);
  for (int i = 0; i < 30; ++i) h1.Add({5});
  for (int i = 0; i < 70; ++i) h2.Add({95});
  EXPECT_NEAR(MismatchFraction(h1, h2).value(), 1.0, 1e-12);
  // Raw mismatch: |30-0|/2 + |0-70|/2 = 50 tuples.
  EXPECT_NEAR(MismatchTuples(h1, h2).value(), 50.0, 1e-12);
}

TEST(MismatchTest, NormalizationIgnoresScale) {
  Schema s({{"a", 0, 99}});
  Histogram h1(s, 10), h2(s, 10);
  for (int i = 0; i < 100; ++i) h1.Add({static_cast<Value>(i)});
  for (int i = 0; i < 100; ++i) {
    h2.Add({static_cast<Value>(i)});
    h2.Add({static_cast<Value>(i)});  // same shape, double mass
  }
  EXPECT_NEAR(MismatchFraction(h1, h2).value(), 0.0, 1e-12);
}

TEST(MismatchTest, SymmetricAndBounded) {
  Schema s({{"a", 0, 99}, {"b", 0, 99}});
  Histogram h1(s, 8), h2(s, 8);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) h1.Add({rng.Uniform(100), rng.Uniform(100)});
  for (int i = 0; i < 300; ++i) h2.Add({rng.Uniform(50), rng.Uniform(100)});
  double m12 = MismatchFraction(h1, h2).value();
  double m21 = MismatchFraction(h2, h1).value();
  EXPECT_NEAR(m12, m21, 1e-12);
  EXPECT_GE(m12, 0.0);
  EXPECT_LE(m12, 1.0);
  EXPECT_GT(m12, 0.3);  // h2 concentrated on half the space
}

TEST(MismatchTest, ErrorsOnShapeMismatchOrEmpty) {
  Schema s({{"a", 0, 99}});
  Histogram h1(s, 10), h2(s, 5), h3(s, 10);
  h1.Add({1});
  EXPECT_FALSE(MismatchFraction(h1, h2).ok());
  EXPECT_FALSE(MismatchFraction(h1, h3).ok());  // h3 empty
}

// ---------------------------------------------------------------- CutTree

TEST(CutTreeEvenTest, CodeForPointFirstCuts) {
  Schema s = MakeSchema3();
  CutTree t = CutTree::Even(s);
  // Depth 0 cuts dim x at 499; depth 1 cuts dim y; depth 2 dim z.
  EXPECT_EQ(t.CodeForPoint({0, 0, 0}, 3).ToString(), "000");
  EXPECT_EQ(t.CodeForPoint({999, 0, 0}, 3).ToString(), "100");
  EXPECT_EQ(t.CodeForPoint({0, 999, 0}, 3).ToString(), "010");
  EXPECT_EQ(t.CodeForPoint({0, 0, 999}, 3).ToString(), "001");
  EXPECT_EQ(t.CodeForPoint({999, 999, 999}, 3).ToString(), "111");
  EXPECT_EQ(t.CodeForPoint({499, 499, 499}, 3).ToString(), "000");
  EXPECT_EQ(t.CodeForPoint({500, 500, 500}, 3).ToString(), "111");
}

TEST(CutTreeEvenTest, RectForCodeInvertsCodeForPoint) {
  Schema s = MakeSchema3();
  CutTree t = CutTree::Even(s);
  Rng rng(17);
  for (int iter = 0; iter < 200; ++iter) {
    Point p{rng.Uniform(1000), rng.Uniform(1000), rng.Uniform(1000)};
    int len = static_cast<int>(rng.Uniform(13));
    BitCode code = t.CodeForPoint(p, len);
    auto rect = t.RectForCode(code);
    ASSERT_TRUE(rect.has_value());
    EXPECT_TRUE(rect->Contains(p)) << code.ToString();
  }
}

TEST(CutTreeEvenTest, PrefixRectNestsChildRect) {
  Schema s = MakeSchema3();
  CutTree t = CutTree::Even(s);
  BitCode code = BitCode::FromString("0110101");
  for (int n = 0; n < code.length(); ++n) {
    auto outer = t.RectForCode(code.Prefix(n));
    auto inner = t.RectForCode(code.Prefix(n + 1));
    ASSERT_TRUE(outer && inner);
    EXPECT_TRUE(outer->Contains(*inner));
  }
}

TEST(CutTreeEvenTest, SiblingRectsPartitionParent) {
  Schema s = MakeSchema3();
  CutTree t = CutTree::Even(s);
  BitCode parent = BitCode::FromString("01");
  auto pr = t.RectForCode(parent);
  auto r0 = t.RectForCode(parent.Child(0));
  auto r1 = t.RectForCode(parent.Child(1));
  ASSERT_TRUE(pr && r0 && r1);
  EXPECT_FALSE(r0->Intersects(*r1));
  // Together they cover the parent along the cut dim.
  int dim = t.DimAtDepth(2);
  EXPECT_EQ(r0->interval(dim).lo, pr->interval(dim).lo);
  EXPECT_EQ(r0->interval(dim).hi + 1, r1->interval(dim).lo);
  EXPECT_EQ(r1->interval(dim).hi, pr->interval(dim).hi);
}

TEST(CutTreeEvenTest, DegenerateSingleValueDomain) {
  Schema s({{"a", 5, 5}, {"b", 0, 1}});
  CutTree t = CutTree::Even(s);
  // dim a can never split: every point goes to side 0 at even depths.
  BitCode c = t.CodeForPoint({5, 1}, 4);
  EXPECT_EQ(c.bit(0), 0);
  EXPECT_EQ(c.bit(2), 0);
  auto empty = t.RectForCode(BitCode::FromString("1"));
  EXPECT_FALSE(empty.has_value());
}

TEST(CutTreeEvenTest, MinimalContainingCode) {
  Schema s = MakeSchema3();
  CutTree t = CutTree::Even(s);
  // Query contained in the low-x half: first bit is 0, then straddles y.
  Rect q({{0, 100}, {0, 999}, {0, 999}});
  BitCode code = t.MinimalContainingCode(q, 16);
  EXPECT_GE(code.length(), 1);
  EXPECT_EQ(code.bit(0), 0);
  auto rect = t.RectForCode(code);
  ASSERT_TRUE(rect.has_value());
  EXPECT_TRUE(rect->Contains(q));
  // Whole-space query: empty code.
  EXPECT_EQ(t.MinimalContainingCode(Rect::FullSpace(s), 16).length(), 0);
}

TEST(CutTreeEvenTest, MinimalContainingCodeRespectsMaxLen) {
  Schema s({{"a", 0, 1 << 20}});
  CutTree t = CutTree::Even(s);
  Rect point_query({{12345, 12345}});
  BitCode code = t.MinimalContainingCode(point_query, 6);
  EXPECT_EQ(code.length(), 6);
}

TEST(CutTreeEvenTest, IntersectingChildren) {
  Schema s = MakeSchema3();
  CutTree t = CutTree::Even(s);
  // Query in low-x half only.
  Rect q({{0, 100}, {0, 999}, {0, 999}});
  auto kids = t.IntersectingChildren(q, BitCode());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0].ToString(), "0");
  // Query straddling x.
  Rect q2({{400, 600}, {0, 999}, {0, 999}});
  auto kids2 = t.IntersectingChildren(q2, BitCode());
  ASSERT_EQ(kids2.size(), 2u);
}

TEST(CutTreeEvenTest, CoverFindsAllIntersectingLeaves) {
  Schema s({{"a", 0, 999}, {"b", 0, 999}});
  CutTree t = CutTree::Even(s);
  Rect q({{0, 499}, {0, 999}});  // half the space
  auto cover = t.Cover(q, 4);
  ASSERT_TRUE(cover.ok());
  // At len 4: a-dim split twice, b-dim twice; half the a-range -> 8 codes.
  EXPECT_EQ(cover.value().size(), 8u);
  for (const auto& c : cover.value()) {
    auto r = t.RectForCode(c);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->Intersects(q));
  }
}

TEST(CutTreeEvenTest, CoverOverflowErrors) {
  Schema s({{"a", 0, 999}, {"b", 0, 999}});
  CutTree t = CutTree::Even(s);
  auto r = t.Cover(Rect::FullSpace(s), 10, 100);  // 1024 leaves > 100
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST(CutTreeBalancedTest, RejectsBadArgs) {
  Schema s = MakeSchema3();
  Histogram h(s, 8);
  h.Add({1, 1, 1});
  EXPECT_FALSE(CutTree::Balanced(s, h, -1).ok());
  EXPECT_FALSE(CutTree::Balanced(s, h, 25).ok());
  Histogram other(Schema({{"q", 0, 9}}), 8);
  EXPECT_FALSE(CutTree::Balanced(s, other, 4).ok());
}

TEST(CutTreeBalancedTest, ZeroDepthEqualsEven) {
  Schema s = MakeSchema3();
  Histogram h(s, 8);
  h.Add({1, 1, 1});
  auto t = CutTree::Balanced(s, h, 0);
  ASSERT_TRUE(t.ok());
  CutTree even = CutTree::Even(s);
  Point p{123, 456, 789};
  EXPECT_EQ(t->CodeForPoint(p, 10), even.CodeForPoint(p, 10));
}

// The central balancing property: with skewed data, balanced cuts spread the
// mass far more evenly over regions than even cuts (Figure 5 / Figure 13).
TEST(CutTreeBalancedTest, BalancesSkewedData) {
  Schema s({{"a", 0, 99999}, {"b", 0, 99999}});
  Histogram h(s, 64);
  Rng rng(21);
  std::vector<Point> pts;
  for (int i = 0; i < 20000; ++i) {
    // Strong skew: 90% of mass in the low 10% of both dims. (The skew must
    // remain resolvable by the histogram bins — the paper notes that
    // balancing efficiency is limited by histogram granularity.)
    Value a = rng.Bernoulli(0.9) ? rng.Uniform(10000) : rng.Uniform(100000);
    Value b = rng.Bernoulli(0.9) ? rng.Uniform(10000) : rng.Uniform(100000);
    pts.push_back({a, b});
    h.Add(pts.back());
  }
  const int depth = 4;  // 16 regions
  auto balanced = CutTree::Balanced(s, h, depth);
  ASSERT_TRUE(balanced.ok());
  CutTree even = CutTree::Even(s);

  auto max_region_count = [&](const CutTree& t) {
    std::map<std::string, int> counts;
    for (const auto& p : pts) counts[t.CodeForPoint(p, depth).ToString()]++;
    int mx = 0;
    for (auto& [_, c] : counts) mx = std::max(mx, c);
    return mx;
  };
  int even_max = max_region_count(even);
  int bal_max = max_region_count(*balanced);
  // Perfect balance would be 20000/16 = 1250 per region.
  EXPECT_LT(bal_max, even_max / 3);
  EXPECT_LT(bal_max, 4000);
  EXPECT_GT(even_max, 10000);  // even cuts pile most data into one region
}

TEST(CutTreeBalancedTest, CodesStillInvertible) {
  Schema s({{"a", 0, 9999}, {"b", 0, 9999}});
  Histogram h(s, 32);
  Rng rng(23);
  std::vector<Point> pts;
  for (int i = 0; i < 5000; ++i) {
    Value a = static_cast<Value>(std::min(9999.0, rng.Pareto(10, 0.8)));
    Value b = rng.Uniform(10000);
    pts.push_back({a, b});
    h.Add(pts.back());
  }
  auto t = CutTree::Balanced(s, h, 6);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 500; ++i) {
    const Point& p = pts[i * 10];
    BitCode code = t->CodeForPoint(p, 12);  // deeper than materialized
    auto rect = t->RectForCode(code);
    ASSERT_TRUE(rect.has_value());
    EXPECT_TRUE(rect->Contains(p));
  }
}

TEST(CutTreeBalancedTest, CoverAndPointCodesConsistent) {
  // Every point inside a query rect must land in a region in the rect's
  // cover — the property that makes distributed querying complete.
  Schema s({{"a", 0, 9999}, {"b", 0, 9999}});
  Histogram h(s, 16);
  Rng rng(29);
  for (int i = 0; i < 3000; ++i) {
    h.Add({rng.Uniform(10000) / 10, rng.Uniform(10000)});  // skewed to low a
  }
  auto t = CutTree::Balanced(s, h, 5);
  ASSERT_TRUE(t.ok());
  Rect q({{100, 700}, {2000, 7000}});
  const int len = 7;
  auto cover = t->Cover(q, len);
  ASSERT_TRUE(cover.ok());
  for (int i = 0; i < 2000; ++i) {
    Point p{100 + rng.Uniform(601), 2000 + rng.Uniform(5001)};
    ASSERT_TRUE(q.Contains(p));
    BitCode code = t->CodeForPoint(p, len);
    bool found = std::find(cover->begin(), cover->end(), code) != cover->end();
    ASSERT_TRUE(found) << "point code " << code.ToString()
                       << " missing from cover";
  }
}

// ---------------------------------------------- cover and split vs an oracle

// A random Even or Balanced tree over 1-6 dimensions. Some dimensions hold
// a single value (every high side along them is empty) and some only a few
// (descent reaches single-value intervals within 12 levels).
CutTree RandomTree(Rng* rng) {
  const int dims = 1 + static_cast<int>(rng->Uniform(6));
  std::vector<AttributeDef> attrs;
  for (int d = 0; d < dims; ++d) {
    std::string name = "d";
    name += std::to_string(d);
    const Value lo = rng->Uniform(100);
    Value span = 0;
    switch (rng->Uniform(4)) {
      case 0:
        span = 0;
        break;
      case 1:
        span = rng->Uniform(8);
        break;
      default:
        span = rng->Uniform(uint64_t{1} << (4 + rng->Uniform(28)));
    }
    attrs.push_back({name, lo, lo + span});
  }
  Schema schema(attrs);
  if (rng->Bernoulli(0.5)) return CutTree::Even(schema);
  Histogram hist(schema, 8);
  const Rect space = Rect::FullSpace(schema);
  for (int i = 0; i < 200; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) {
      const Interval iv = space.interval(d);
      const Value span = iv.hi - iv.lo;
      p[d] = iv.lo + rng->Uniform(rng->Bernoulli(0.7) ? span / 8 + 1 : span + 1);
    }
    hist.Add(p);
  }
  auto tree = CutTree::Balanced(schema, hist, static_cast<int>(rng->Uniform(9)));
  MIND_CHECK(tree.ok());
  return std::move(*tree);
}

// A query box inside the space, or (now and then) poking past its edges.
Rect RandomBox(Rng* rng, const Schema& schema) {
  std::vector<Interval> ivs;
  for (int d = 0; d < schema.dims(); ++d) {
    const AttributeDef& a = schema.attr(d);
    const Value lo = rng->Bernoulli(0.1) ? 0 : a.min;
    const Value hi = rng->Bernoulli(0.1) ? a.max + 5 : a.max;
    Value x = rng->UniformRange(lo, hi);
    Value y = rng->Bernoulli(0.5) ? x + rng->Uniform((hi - x) / 8 + 1)
                                  : rng->UniformRange(lo, hi);
    if (x > y) std::swap(x, y);
    ivs.push_back({x, y});
  }
  return Rect(ivs);
}

// Every code of length `len` whose rectangle intersects `query`, in
// ascending key order.
std::vector<BitCode> OracleCover(const CutTree& t, const Rect& query, int len) {
  std::vector<BitCode> out;
  for (uint64_t bits = 0; bits < (uint64_t{1} << len); ++bits) {
    const BitCode code = BitCode::FromBits(bits, len);
    auto rect = t.RectForCode(code);
    if (rect.has_value() && rect->Intersects(query)) out.push_back(code);
  }
  return out;
}

std::vector<BitCode> Codes(const CutTree::Children& kids) {
  return std::vector<BitCode>(kids.begin(), kids.end());
}

TEST(CutTreeCoverPropertyTest, CoverAndSplitMatchOracle) {
  Rng rng(2811);
  CutTree::Cursor shared;  // one caller's scratch, across trees of any arity
  std::vector<BitCode> shared_out;
  int nonempty = 0, overflow_checked = 0, empty_sides = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CutTree t = RandomTree(&rng);
    const Rect query = RandomBox(&rng, t.schema());
    const int len = static_cast<int>(rng.Uniform(13));
    const std::vector<BitCode> oracle = OracleCover(t, query, len);
    nonempty += !oracle.empty();
    empty_sides += OracleCover(t, Rect::FullSpace(t.schema()), len).size() <
                   (size_t{1} << len);

    auto fresh = t.Cover(query, len);
    ASSERT_TRUE(fresh.ok()) << "trial " << trial;
    EXPECT_EQ(*fresh, oracle) << "trial " << trial << " len " << len;
    ASSERT_TRUE(t.Cover(query, len, 65536, &shared, &shared_out).ok());
    EXPECT_EQ(shared_out, oracle) << "shared scratch, trial " << trial;

    // max_codes == count passes; one fewer overflows.
    const size_t count = oracle.size();
    ASSERT_TRUE(t.Cover(query, len, count, &shared, &shared_out).ok());
    EXPECT_EQ(shared_out, oracle);
    if (count > 0) {
      ++overflow_checked;
      EXPECT_TRUE(t.Cover(query, len, count - 1).status().IsOutOfRange());
      EXPECT_TRUE(t.Cover(query, len, count - 1, &shared, &shared_out)
                      .IsOutOfRange());
    }

    // Splits of every code of length < 12 along a random path, and of
    // random codes (some walking into an empty side).
    BitCode code;
    for (int depth = 0; depth < 12; ++depth) {
      std::vector<BitCode> expect;
      for (int bit = 0; bit <= 1; ++bit) {
        auto rect = t.RectForCode(code.Child(bit));
        if (rect.has_value() && rect->Intersects(query)) {
          expect.push_back(code.Child(bit));
        }
      }
      EXPECT_EQ(Codes(t.IntersectingChildren(query, code)), expect)
          << "trial " << trial << " code " << code.ToString();
      EXPECT_EQ(Codes(t.IntersectingChildren(query, code, &shared)), expect)
          << "shared scratch, trial " << trial << " code " << code.ToString();
      code.PushBack(static_cast<int>(rng.Uniform(2)));
    }
  }
  // The sweep reaches the cases it is meant to.
  EXPECT_GT(nonempty, 150);
  EXPECT_GT(overflow_checked, 150);
  EXPECT_GT(empty_sides, 30);
}

TEST(CutTreeCoverPropertyTest, BackToBackCallsOnSharedScratchAgree) {
  Rng rng(2812);
  for (int trial = 0; trial < 100; ++trial) {
    const CutTree a = RandomTree(&rng);
    const CutTree b = RandomTree(&rng);
    const Rect qa = RandomBox(&rng, a.schema());
    const Rect qb = RandomBox(&rng, b.schema());
    const int len = static_cast<int>(rng.Uniform(13));
    CutTree::Cursor scratch;
    std::vector<BitCode> out;
    // a, then b (possibly another arity), then a again on the same scratch.
    ASSERT_TRUE(a.Cover(qa, len, 65536, &scratch, &out).ok());
    EXPECT_EQ(out, *a.Cover(qa, len));
    ASSERT_TRUE(b.Cover(qb, len, 65536, &scratch, &out).ok());
    EXPECT_EQ(out, *b.Cover(qb, len));
    ASSERT_TRUE(a.Cover(qa, len, 65536, &scratch, &out).ok());
    EXPECT_EQ(out, *a.Cover(qa, len));
    // The code of a's low corner (CodeForPoint clamps into the space).
    const BitCode code = a.CodeForPoint(Point(a.schema().dims(), 0), len);
    EXPECT_EQ(Codes(a.IntersectingChildren(qa, code, &scratch)),
              Codes(a.IntersectingChildren(qa, code)));
    EXPECT_EQ(Codes(b.IntersectingChildren(qb, code, &scratch)),
              Codes(b.IntersectingChildren(qb, code)));
  }
}

// Property sweep over schemas/dimensions: code/rect duality holds for any
// dimensionality and domain shape. gtest prints the raw bytes of a param into
// the test names, so the struct must have no padding: `dims` is 64-bit.
struct TreeParam {
  int64_t dims;
  uint64_t domain_max;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TreeParam>);

class CutTreePropertyTest : public ::testing::TestWithParam<TreeParam> {};

TEST_P(CutTreePropertyTest, PointAlwaysInOwnRect) {
  const TreeParam param = GetParam();
  std::vector<AttributeDef> attrs;
  for (int d = 0; d < param.dims; ++d) {
    std::string name = "d";
    name += std::to_string(d);
    attrs.push_back({name, 0, param.domain_max});
  }
  Schema s(attrs);
  Rng rng(param.seed);
  Histogram h(s, 8);
  std::vector<Point> pts;
  for (int i = 0; i < 1000; ++i) {
    Point p(param.dims);
    for (int d = 0; d < param.dims; ++d) {
      p[d] = rng.UniformRange(0, param.domain_max);
    }
    h.Add(p);
    pts.push_back(std::move(p));
  }
  auto balanced = CutTree::Balanced(s, h, 6);
  ASSERT_TRUE(balanced.ok());
  CutTree even = CutTree::Even(s);
  for (const CutTree* t : {&even, &*balanced}) {
    for (size_t i = 0; i < pts.size(); i += 7) {
      BitCode code = t->CodeForPoint(pts[i], 10);
      auto rect = t->RectForCode(code);
      ASSERT_TRUE(rect.has_value());
      ASSERT_TRUE(rect->Contains(pts[i]));
    }
  }
}

TEST_P(CutTreePropertyTest, DistinctRegionsAreDisjoint) {
  const TreeParam param = GetParam();
  std::vector<AttributeDef> attrs;
  for (int d = 0; d < param.dims; ++d) {
    std::string name = "d";
    name += std::to_string(d);
    attrs.push_back({name, 0, param.domain_max});
  }
  Schema s(attrs);
  CutTree t = CutTree::Even(s);
  auto cover = t.Cover(Rect::FullSpace(s), 4);
  ASSERT_TRUE(cover.ok());
  for (size_t i = 0; i < cover->size(); ++i) {
    auto ri = t.RectForCode((*cover)[i]);
    ASSERT_TRUE(ri.has_value());
    for (size_t j = i + 1; j < cover->size(); ++j) {
      auto rj = t.RectForCode((*cover)[j]);
      ASSERT_TRUE(rj.has_value());
      EXPECT_FALSE(ri->Intersects(*rj));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CutTreePropertyTest,
    ::testing::Values(TreeParam{1, 1000, 1}, TreeParam{2, 65535, 2},
                      TreeParam{3, 999, 3}, TreeParam{4, 1u << 30, 4},
                      TreeParam{6, UINT32_MAX, 5}, TreeParam{2, 7, 6}));

}  // namespace
}  // namespace mind
