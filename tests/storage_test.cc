#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "space/cut_tree.h"
#include "storage/cover_cache.h"
#include "storage/scan_kernels.h"
#include "storage/tuple_store.h"
#include "storage/version_manager.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/snapio.h"

namespace mind {
namespace {

Schema MakeSchema() {
  return Schema({{"x", 0, 9999}, {"y", 0, 9999}});
}

CutTreeRef EvenCuts() {
  return std::make_shared<CutTree>(CutTree::Even(MakeSchema()));
}

Tuple MakeTuple(Value x, Value y, int origin = 0, uint64_t seq = 0) {
  Tuple t;
  t.point = {x, y};
  t.extra = {x + y};
  t.origin = origin;
  t.seq = seq;
  return t;
}

TEST(TupleTest, WireBytesScalesWithAttrs) {
  Tuple t = MakeTuple(1, 2);
  EXPECT_EQ(t.WireBytes(), 24 + 8 * 3);
  Tuple empty;
  EXPECT_EQ(empty.WireBytes(), 24u);
}

TEST(TupleStoreTest, InsertAndExactQuery) {
  TupleStore store(EvenCuts(), 24);
  store.Insert(MakeTuple(100, 200));
  store.Insert(MakeTuple(5000, 5000));
  EXPECT_EQ(store.size(), 2u);
  auto r = store.Query(Rect({{0, 999}, {0, 999}}));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].point, (Point{100, 200}));
}

TEST(TupleStoreTest, EmptyStoreEmptyResult) {
  TupleStore store(EvenCuts(), 24);
  EXPECT_TRUE(store.Query(Rect({{0, 9999}, {0, 9999}})).empty());
  EXPECT_EQ(store.Count(Rect({{0, 9999}, {0, 9999}})), 0u);
}

TEST(TupleStoreTest, InclusiveBoundaries) {
  TupleStore store(EvenCuts(), 24);
  store.Insert(MakeTuple(10, 10));
  store.Insert(MakeTuple(20, 20));
  EXPECT_EQ(store.Count(Rect({{10, 20}, {10, 20}})), 2u);
  EXPECT_EQ(store.Count(Rect({{10, 10}, {10, 10}})), 1u);
  EXPECT_EQ(store.Count(Rect({{11, 19}, {0, 9999}})), 0u);
}

TEST(TupleStoreTest, QueryMatchesBruteForce) {
  Rng rng(31);
  TupleStore store(EvenCuts(), 24);
  std::vector<Tuple> all;
  for (int i = 0; i < 5000; ++i) {
    // Skewed data to stress narrow code regions.
    Value x = rng.Bernoulli(0.7) ? rng.Uniform(100) : rng.Uniform(10000);
    Value y = rng.Uniform(10000);
    Tuple t = MakeTuple(x, y, 0, i);
    all.push_back(t);
    store.Insert(t);
  }
  for (int iter = 0; iter < 50; ++iter) {
    Value x1 = rng.Uniform(10000), x2 = rng.Uniform(10000);
    Value y1 = rng.Uniform(10000), y2 = rng.Uniform(10000);
    Rect q({{std::min(x1, x2), std::max(x1, x2)},
            {std::min(y1, y2), std::max(y1, y2)}});
    size_t expected = 0;
    for (const auto& t : all) {
      if (q.Contains(t.point)) ++expected;
    }
    EXPECT_EQ(store.Count(q), expected) << q.ToString();
  }
}

TEST(TupleStoreTest, BalancedCutsSameResults) {
  // Query results must not depend on the embedding.
  Rng rng(37);
  Schema s = MakeSchema();
  Histogram h(s, 16);
  std::vector<Tuple> all;
  for (int i = 0; i < 3000; ++i) {
    Value x = rng.Uniform(200);  // heavy skew
    Value y = rng.Uniform(10000);
    all.push_back(MakeTuple(x, y, 0, i));
    h.Add(all.back().point);
  }
  auto balanced = CutTree::Balanced(s, h, 8);
  ASSERT_TRUE(balanced.ok());
  TupleStore even_store(EvenCuts(), 24);
  TupleStore bal_store(std::make_shared<CutTree>(std::move(balanced).value()), 24);
  for (const auto& t : all) {
    even_store.Insert(t);
    bal_store.Insert(t);
  }
  for (int iter = 0; iter < 30; ++iter) {
    Value x1 = rng.Uniform(250), x2 = rng.Uniform(250);
    Rect q({{std::min(x1, x2), std::max(x1, x2)}, {0, 9999}});
    EXPECT_EQ(even_store.Count(q), bal_store.Count(q));
  }
}

TEST(TupleStoreTest, InterleavedInsertAndQuery) {
  TupleStore store(EvenCuts(), 24);
  Rect all({{0, 9999}, {0, 9999}});
  for (int i = 0; i < 100; ++i) {
    store.Insert(MakeTuple(i * 97 % 10000, i * 31 % 10000, 0, i));
    EXPECT_EQ(store.Count(all), static_cast<size_t>(i + 1));
  }
}

TEST(TupleStoreTest, ApproxBytesGrows) {
  TupleStore store(EvenCuts(), 24);
  EXPECT_EQ(store.approx_bytes(), 0u);
  store.Insert(MakeTuple(1, 1));
  uint64_t b1 = store.approx_bytes();
  store.Insert(MakeTuple(2, 2));
  EXPECT_GT(store.approx_bytes(), b1);
}

TEST(TupleStoreTest, BuildHistogramCountsAll) {
  TupleStore store(EvenCuts(), 24);
  for (int i = 0; i < 100; ++i) store.Insert(MakeTuple(i, i));
  Histogram h = store.BuildHistogram(8);
  EXPECT_DOUBLE_EQ(h.total_mass(), 100.0);
  EXPECT_EQ(h.schema(), MakeSchema());
}

// ------------------------------------------------------- two-level layout

// Every layout (never compacted / auto-compacted / freshly compacted) must
// answer queries and digest identically: compaction is observable only
// through base_size()/delta_size().
TEST(TupleStoreTest, CompactionIsLayoutOnly) {
  Rng rng(41);
  TupleStoreConfig off_cfg;
  off_cfg.code_len = 24;
  off_cfg.options.compaction = false;
  auto cuts = EvenCuts();
  TupleStore auto_store(cuts, 24);          // default: compaction on
  TupleStore off_store(cuts, off_cfg);      // everything stays in the delta
  TupleStore manual_store(cuts, off_cfg);   // compacted by hand mid-stream
  for (int i = 0; i < 1000; ++i) {
    Tuple t = MakeTuple(rng.Uniform(10000), rng.Uniform(10000), 0, i);
    auto_store.Insert(t);
    off_store.Insert(t);
    manual_store.Insert(t);
    if (i % 137 == 0) manual_store.Compact();
  }
  EXPECT_GT(auto_store.base_size(), 0u);    // the ratio trigger fired
  EXPECT_EQ(off_store.base_size(), 0u);     // it never does with compaction off
  EXPECT_EQ(off_store.delta_size(), 1000u);
  for (int iter = 0; iter < 30; ++iter) {
    Value x1 = rng.Uniform(10000), x2 = rng.Uniform(10000);
    Value y1 = rng.Uniform(10000), y2 = rng.Uniform(10000);
    Rect q({{std::min(x1, x2), std::max(x1, x2)},
            {std::min(y1, y2), std::max(y1, y2)}});
    size_t expect = off_store.Count(q);
    EXPECT_EQ(auto_store.Count(q), expect) << q.ToString();
    EXPECT_EQ(manual_store.Count(q), expect) << q.ToString();
  }
  Fnv64 d_auto, d_off, d_manual;
  auto_store.DigestInto(&d_auto);
  off_store.DigestInto(&d_off);
  manual_store.DigestInto(&d_manual);
  EXPECT_EQ(d_auto.value(), d_off.value());
  EXPECT_EQ(d_auto.value(), d_manual.value());
  EXPECT_TRUE(auto_store.ValidateInvariants().ok());
  EXPECT_TRUE(off_store.ValidateInvariants().ok());
  EXPECT_TRUE(manual_store.ValidateInvariants().ok());
}

TEST(TupleStoreTest, DeltaBaseBoundaryAndEmptyRunEdges) {
  TupleStore store(EvenCuts(), 24);
  Rect all({{0, 9999}, {0, 9999}});
  // Both runs empty.
  EXPECT_EQ(store.Count(all), 0u);
  store.Compact();  // compacting nothing is a no-op
  EXPECT_EQ(store.size(), 0u);
  // Delta only.
  store.Insert(MakeTuple(10, 10, 0, 1));
  EXPECT_EQ(store.base_size(), 0u);
  EXPECT_EQ(store.Count(all), 1u);
  // Base only.
  store.Compact();
  EXPECT_EQ(store.base_size(), 1u);
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.Count(all), 1u);
  // Straddling: the same key can live in both runs at once; queries must see
  // both copies (distinct seqs — de-dup is the originator's job, not ours).
  store.Insert(MakeTuple(10, 10, 0, 2));
  EXPECT_EQ(store.base_size(), 1u);
  EXPECT_EQ(store.delta_size(), 1u);
  EXPECT_EQ(store.Count(Rect({{10, 10}, {10, 10}})), 2u);
  EXPECT_EQ(store.Count(all), 2u);
}

TEST(TupleStoreTest, FreezeCompactionAtVersionBoundary) {
  TupleStoreConfig cfg;
  cfg.code_len = 24;
  IndexVersions v(cfg);
  ASSERT_TRUE(v.AddVersion(1, EvenCuts(), 0).ok());
  for (int i = 0; i < 10; ++i) v.Store(1)->Insert(MakeTuple(i, i, 0, i));
  EXPECT_EQ(v.Store(1)->delta_size(), 10u);  // below the ratio trigger
  ASSERT_TRUE(v.AddVersion(2, EvenCuts(), kUsPerDay).ok());
  EXPECT_EQ(v.Store(1)->delta_size(), 0u);   // frozen down at the boundary
  EXPECT_EQ(v.Store(1)->base_size(), 10u);
}

// ------------------------------------------------------------ cover cache

TEST(CoverCacheTest, RangesAreMergedSortedAndDisjoint) {
  auto cuts = EvenCuts();
  CoverRanges cr =
      ComputeCoverRanges(*cuts, Rect({{0, 4999}, {0, 9999}}), 12, 4096);
  ASSERT_FALSE(cr.fallback);
  ASSERT_FALSE(cr.ranges.empty());
  for (size_t i = 0; i < cr.ranges.size(); ++i) {
    EXPECT_LE(cr.ranges[i].lo, cr.ranges[i].hi);
    // Strictly separated: abutting neighbours would have been merged.
    if (i > 0) {
      EXPECT_GT(cr.ranges[i].lo, cr.ranges[i - 1].hi + 1);
    }
  }
  // The half-domain rect covers one subtree: codes 0xx... merge to one range.
  EXPECT_EQ(cr.ranges.size(), 1u);
}

TEST(CoverCacheTest, HitsMissesAndInvalidation) {
  telemetry::MetricsRegistry metrics;
  CoverCache cache(&metrics);
  auto cuts = EvenCuts();
  Rect q({{0, 999}, {0, 999}});
  const CoverRanges* a = cache.GetOrCompute(q, cuts, 12, 4096);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  const CoverRanges* b = cache.GetOrCompute(q, cuts, 12, 4096);
  EXPECT_EQ(a, b);  // served from the table, not recomputed
  // Same rect, different length or different tree: distinct entries.
  cache.GetOrCompute(q, cuts, 10, 4096);
  cache.GetOrCompute(q, EvenCuts(), 12, 4096);
  EXPECT_EQ(cache.size(), 3u);
#ifndef MIND_TELEMETRY_DISABLED
  EXPECT_EQ(metrics.counter("storage.cover_cache.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("storage.cover_cache.misses").value(), 3u);
#endif
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrCompute(q, cuts, 12, 4096);
  EXPECT_EQ(cache.size(), 1u);  // repopulated after the clear
}

// Cached scans against a brute-force reference: every inserted tuple tested
// with Rect::Contains, no cover and no index involved.
TEST(CoverCacheTest, CachedAndUncachedScansAgree) {
  Rng rng(43);
  auto cuts = EvenCuts();
  CoverCache cache;
  TupleStoreConfig cached_cfg;
  cached_cfg.code_len = 24;
  cached_cfg.cover_cache = &cache;
  TupleStore cached(cuts, cached_cfg);
  std::vector<Tuple> inserted;
  for (int i = 0; i < 2000; ++i) {
    Tuple t = MakeTuple(rng.Uniform(10000), rng.Uniform(10000), 0, i);
    cached.Insert(t);
    inserted.push_back(std::move(t));
  }
  for (int iter = 0; iter < 40; ++iter) {
    Value x1 = rng.Uniform(10000), x2 = rng.Uniform(10000);
    Value y1 = rng.Uniform(10000), y2 = rng.Uniform(10000);
    Rect q({{std::min(x1, x2), std::max(x1, x2)},
            {std::min(y1, y2), std::max(y1, y2)}});
    const auto expected = static_cast<size_t>(
        std::count_if(inserted.begin(), inserted.end(),
                      [&q](const Tuple& t) { return q.Contains(t.point); }));
    EXPECT_EQ(cached.Count(q), expected) << q.ToString();
    // Re-probe: the second scan is served from the cache and must agree too.
    EXPECT_EQ(cached.Count(q), expected) << q.ToString();
  }
  EXPECT_GT(cache.size(), 0u);
}

TEST(CoverCacheTest, CoverOverflowTakesFallbackAndStaysCorrect) {
  telemetry::MetricsRegistry metrics;
  Rng rng(47);
  TupleStoreConfig cfg;
  cfg.code_len = 24;
  cfg.options.max_cover_codes = 4;  // force overflow on fragmented covers
  cfg.metrics = &metrics;
  TupleStore store(EvenCuts(), cfg);
  TupleStore plain(EvenCuts(), 24);
  for (int i = 0; i < 500; ++i) {
    Tuple t = MakeTuple(rng.Uniform(10000), rng.Uniform(10000), 0, i);
    store.Insert(t);
    plain.Insert(t);
  }
  // A rect clipped on both dims fragments into >4 codes at cover_len 12.
  Rect q({{1, 9998}, {1, 9998}});
  EXPECT_EQ(store.Count(q), plain.Count(q));
#ifndef MIND_TELEMETRY_DISABLED
  EXPECT_GE(metrics.counter("storage.cover.fallback").value(), 1u);
#endif
}

// ------------------------------------------------------------ store layout

TupleStoreConfig BackendConfig() {
  TupleStoreConfig cfg;
  cfg.code_len = 24;
  return cfg;
}

// Brute-force "rows examined" for one query: the tuples whose `code_len`-bit
// key lies in one of the query's cover ranges at `cover_len` (every tuple on
// cover fallback), which is what the scan contract defines it as.
uint64_t ExpectedExamined(const CutTree& cuts, const Rect& q, int cover_len,
                          size_t max_cover_codes, int code_len,
                          const std::vector<Tuple>& tuples) {
  const CoverRanges cover =
      ComputeCoverRanges(cuts, q, cover_len, max_cover_codes);
  uint64_t n = 0;
  for (const Tuple& t : tuples) {
    const uint64_t key = CodeKey(cuts.CodeForPoint(t.point, code_len));
    n += cover.fallback ||
         std::any_of(cover.ranges.begin(), cover.ranges.end(),
                     [key](const KeyRange& kr) {
                       return kr.lo <= key && key <= kr.hi;
                     });
  }
  return n;
}

// The store must answer every query exactly as brute force over the inserted
// tuples does, examine exactly the rows whose key lies in the query's cover
// ranges (the sim's latency model reads that count), and fold the same
// digest and histogram mass as a store holding the same tuples in another
// arrival order (DESIGN.md §13 digest-transparency rule).
TEST(IndexBackendTest, BackendsAnswerIdentically) {
  Rng rng(53);
  auto cuts = EvenCuts();
  TupleStore store(cuts, BackendConfig());
  TupleStore reversed(cuts, BackendConfig());
  std::vector<Tuple> all;
  for (int i = 0; i < 5000; ++i) {
    Value x = rng.Bernoulli(0.7) ? rng.Uniform(100) : rng.Uniform(10000);
    Tuple t = MakeTuple(x, rng.Uniform(10000), 0, i);
    all.push_back(t);
    store.Insert(t);
  }
  for (auto it = all.rbegin(); it != all.rend(); ++it) reversed.Insert(*it);
  const int len = std::min(TupleStoreOptions{}.cover_len, 24);
  uint64_t expect_examined = 0, expect_matched = 0;
  for (int iter = 0; iter < 50; ++iter) {
    Value x1 = rng.Uniform(10000), x2 = rng.Uniform(10000);
    Value y1 = rng.Uniform(10000), y2 = rng.Uniform(10000);
    Rect q({{std::min(x1, x2), std::max(x1, x2)},
            {std::min(y1, y2), std::max(y1, y2)}});
    size_t expected = 0;
    for (const auto& t : all) {
      if (q.Contains(t.point)) ++expected;
    }
    expect_examined += ExpectedExamined(*cuts, q, len, 4096, 24, all);
    expect_matched += expected;
    EXPECT_EQ(store.Count(q), expected) << q.ToString();
    EXPECT_EQ(reversed.Count(q), expected) << q.ToString();
  }
  EXPECT_EQ(store.scan_rows_examined(), expect_examined);
  EXPECT_EQ(store.scan_rows_matched(), expect_matched);
  EXPECT_EQ(reversed.scan_rows_examined(), expect_examined);
  Fnv64 d_store, d_reversed;
  store.DigestInto(&d_store);
  reversed.DigestInto(&d_reversed);
  EXPECT_EQ(d_store.value(), d_reversed.value());
  EXPECT_DOUBLE_EQ(store.BuildHistogram(8).total_mass(),
                   static_cast<double>(all.size()));
  EXPECT_TRUE(store.ValidateInvariants().ok());
  EXPECT_TRUE(reversed.ValidateInvariants().ok());
}

// ------------------------------------------------- columnar scan property
//
// The sorted runs filter inside their point columns and merge an unsorted
// delta tail into its sorted prefix; this sweep checks every query against
// brute force over the inserted tuples, "examined" included
// (ExpectedExamined).

Schema DimsSchema(int dims) {
  std::vector<AttributeDef> attrs;
  for (int d = 0; d < dims; ++d) {
    std::string name = "a";
    name += std::to_string(d);
    attrs.push_back({name, 0, 999});
  }
  return Schema(attrs);
}

struct PropertyConfig {
  int dims;
  int code_len;
  int cover_len;
  bool compaction;
  size_t max_cover_codes;
};

TupleStoreConfig PropertyStoreConfig(const PropertyConfig& pc) {
  TupleStoreConfig cfg;
  cfg.code_len = pc.code_len;
  cfg.options.compaction = pc.compaction;
  cfg.options.compact_min_delta = 16;  // small runs: compactions do happen
  cfg.options.cover_len = pc.cover_len;
  cfg.options.max_cover_codes = pc.max_cover_codes;
  return cfg;
}

std::vector<std::pair<int, uint64_t>> Ids(const std::vector<Tuple>& ts) {
  std::vector<std::pair<int, uint64_t>> ids;
  for (const Tuple& t : ts) ids.emplace_back(t.origin, t.seq);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Runs one randomized insert/query/compact sequence against brute force.
void RunColumnarProperty(const PropertyConfig& pc, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "dims=" << pc.dims << " code_len=" << pc.code_len
               << " cover_len=" << pc.cover_len
               << " compaction=" << pc.compaction
               << " max_cover_codes=" << pc.max_cover_codes);
  Rng rng(seed);
  auto cuts = std::make_shared<CutTree>(CutTree::Even(DimsSchema(pc.dims)));
  TupleStore store(cuts, PropertyStoreConfig(pc));
  std::vector<Tuple> all;
  const int len = std::min(pc.cover_len, pc.code_len);

  auto random_rect = [&]() {
    std::vector<Interval> ivs;
    for (int d = 0; d < pc.dims; ++d) {
      const Value a = rng.Uniform(1000), b = rng.Uniform(1000);
      ivs.push_back(rng.Bernoulli(0.3) ? Interval{0, 999}
                                       : Interval{std::min(a, b),
                                                  std::max(a, b)});
    }
    return Rect(ivs);
  };
  auto check = [&](const Rect& q) {
    SCOPED_TRACE(q.ToString());
    std::vector<Tuple> expect;
    for (const Tuple& t : all) {
      if (q.Contains(t.point)) expect.push_back(t);
    }
    const uint64_t expect_examined = ExpectedExamined(
        *cuts, q, len, pc.max_cover_codes, pc.code_len, all);
    const uint64_t examined0 = store.scan_rows_examined();
    const uint64_t matched0 = store.scan_rows_matched();
    std::vector<Tuple> got = store.Query(q);
    EXPECT_EQ(Ids(got), Ids(expect));
    for (const Tuple& t : got) {
      // The materialized tuple carries its own point and carried values.
      const Tuple& src = all[t.seq];
      EXPECT_EQ(t, src);
    }
    EXPECT_EQ(store.Count(q), expect.size());
    EXPECT_EQ(store.scan_rows_examined() - examined0, 2 * expect_examined);
    EXPECT_EQ(store.scan_rows_matched() - matched0, 2 * expect.size());
  };

  check(random_rect());  // empty store
  Point last(static_cast<size_t>(pc.dims), 0);
  for (uint64_t seq = 0; seq < 300; ++seq) {
    Tuple t;
    const double u = rng.UniformDouble();
    if (u < 0.15 && !all.empty()) {
      t.point = all[rng.Uniform(all.size())].point;  // an equal-key tie
    } else if (u < 0.45) {
      // Ascending runs keep the delta's sorted prefix growing.
      for (Value& v : last) v = std::min<Value>(999, v + rng.Uniform(8));
      t.point = last;
    } else {
      t.point.resize(static_cast<size_t>(pc.dims));
      for (Value& v : t.point) v = rng.Uniform(1000);
    }
    t.extra.assign(rng.Uniform(3), seq * 7);
    t.origin = static_cast<int>(rng.Uniform(4));
    t.seq = seq;
    store.Insert(t);
    all.push_back(std::move(t));
    if (rng.Bernoulli(0.2)) check(random_rect());
    if (rng.Bernoulli(0.02)) {
      store.Compact();
      check(random_rect());  // a query right after Compact
    }
  }
  check(Rect::FullSpace(cuts->schema()));
  // The digest folds the rows, not their layout: a store fed the same tuples
  // in reverse, compacted, folds the same value.
  TupleStore reversed(cuts, PropertyStoreConfig(pc));
  for (auto it = all.rbegin(); it != all.rend(); ++it) reversed.Insert(*it);
  reversed.Compact();
  Fnv64 d_store, d_reversed;
  store.DigestInto(&d_store);
  reversed.DigestInto(&d_reversed);
  EXPECT_EQ(d_store.value(), d_reversed.value());
  EXPECT_EQ(Ids(store.AllTuples()), Ids(all));
  EXPECT_TRUE(store.ValidateInvariants().ok());
  EXPECT_TRUE(reversed.ValidateInvariants().ok());
}

TEST(ColumnarScanPropertyTest, BothBackendsMatchBruteForce) {
  uint64_t seed = 60;
  for (int dims = 1; dims <= 6; ++dims) {
    for (int variant = 0; variant < 8; ++variant) {
      PropertyConfig pc;
      pc.dims = dims;
      // code_len 8 packs many points per key (ties across distinct points);
      // cover_len 16 is finer than the default cover grid; max_cover_codes 2
      // forces the full-scan fallback.
      pc.code_len = (variant & 1) != 0 ? 8 : 24;
      pc.cover_len = (variant & 2) != 0 ? 16 : 12;
      pc.compaction = (variant & 4) == 0;
      pc.max_cover_codes = variant == 3 || variant == 6 ? 2 : 4096;
      RunColumnarProperty(pc, ++seed);
    }
  }
}

// A snapshot taken while the sorted delta still has an unsorted tail must
// restore the same rows and answer the same queries.
TEST(ColumnarScanPropertyTest, SnapshotRoundTripWithUnsortedDeltaTail) {
  Rng rng(71);
  auto cuts = EvenCuts();
  TupleStoreConfig cfg = BackendConfig();
  cfg.options.compaction = false;
  TupleStore store(cuts, cfg);
  for (int i = 0; i < 40; ++i) store.Insert(MakeTuple(i * 200, i * 200, 0, i));
  (void)store.Count(Rect({{0, 9999}, {0, 9999}}));  // sorts the delta
  // Descending inserts after the last scan: an unsorted tail.
  for (int i = 40; i < 80; ++i) {
    store.Insert(MakeTuple(9999 - rng.Uniform(5000), rng.Uniform(10000), 1, i));
  }
  std::stringstream buf;
  SnapWriter w(&buf);
  store.SaveSnapshotState(&w);
  ASSERT_TRUE(w.status().ok());
  TupleStore restored(cuts, cfg);
  SnapReader r(&buf);
  ASSERT_TRUE(restored.LoadSnapshotState(&r).ok());
  EXPECT_EQ(restored.size(), store.size());
  EXPECT_EQ(restored.approx_bytes(), store.approx_bytes());
  Fnv64 d_store, d_restored;
  store.DigestInto(&d_store);
  restored.DigestInto(&d_restored);
  EXPECT_EQ(d_store.value(), d_restored.value());
  for (int iter = 0; iter < 20; ++iter) {
    Value x1 = rng.Uniform(10000), x2 = rng.Uniform(10000);
    Rect q({{std::min(x1, x2), std::max(x1, x2)}, {0, 9999}});
    EXPECT_EQ(Ids(restored.Query(q)), Ids(store.Query(q))) << q.ToString();
  }
  EXPECT_EQ(restored.scan_rows_examined(), store.scan_rows_examined());
  EXPECT_TRUE(restored.ValidateInvariants().ok());
}

// ---------------------------------------------------------------- Versions

TEST(IndexVersionsTest, AddAndLookupByTime) {
  IndexVersions v(24);
  EXPECT_EQ(v.StoreForTime(0), nullptr);
  EXPECT_FALSE(v.LatestVersion().has_value());
  ASSERT_TRUE(v.AddVersion(1, EvenCuts(), 0).ok());
  ASSERT_TRUE(v.AddVersion(2, EvenCuts(), kUsPerDay).ok());
  EXPECT_EQ(v.LatestVersion().value(), 2u);
  EXPECT_EQ(v.StoreForTime(100), v.Store(1));
  EXPECT_EQ(v.StoreForTime(kUsPerDay), v.Store(2));
  EXPECT_EQ(v.StoreForTime(2 * kUsPerDay), v.Store(2));
  EXPECT_NE(v.Store(1), v.Store(2));
  EXPECT_EQ(v.Store(99), nullptr);
}

TEST(IndexVersionsTest, RejectsBadOrder) {
  IndexVersions v(24);
  ASSERT_TRUE(v.AddVersion(2, EvenCuts(), kUsPerDay).ok());
  EXPECT_TRUE(v.AddVersion(2, EvenCuts(), 2 * kUsPerDay).IsInvalidArgument());
  EXPECT_TRUE(v.AddVersion(1, EvenCuts(), 2 * kUsPerDay).IsInvalidArgument());
  EXPECT_TRUE(v.AddVersion(3, EvenCuts(), 0).IsInvalidArgument());
  EXPECT_TRUE(v.AddVersion(3, nullptr, 2 * kUsPerDay).IsInvalidArgument());
}

TEST(IndexVersionsTest, VersionsOverlapping) {
  IndexVersions v(24);
  ASSERT_TRUE(v.AddVersion(1, EvenCuts(), 0).ok());
  ASSERT_TRUE(v.AddVersion(2, EvenCuts(), kUsPerDay).ok());
  ASSERT_TRUE(v.AddVersion(3, EvenCuts(), 2 * kUsPerDay).ok());
  // Entirely within day 1.
  EXPECT_EQ(v.VersionsOverlapping(100, 200), (std::vector<VersionId>{1}));
  // Spanning days 1-2.
  EXPECT_EQ(v.VersionsOverlapping(kUsPerDay - 10, kUsPerDay + 10),
            (std::vector<VersionId>{1, 2}));
  // All three.
  EXPECT_EQ(v.VersionsOverlapping(0, 3 * kUsPerDay),
            (std::vector<VersionId>{1, 2, 3}));
  // Open-ended tail.
  EXPECT_EQ(v.VersionsOverlapping(10 * kUsPerDay, 11 * kUsPerDay),
            (std::vector<VersionId>{3}));
}

TEST(IndexVersionsTest, StoresAreIsolatedPerVersion) {
  IndexVersions v(24);
  ASSERT_TRUE(v.AddVersion(1, EvenCuts(), 0).ok());
  ASSERT_TRUE(v.AddVersion(2, EvenCuts(), kUsPerDay).ok());
  v.Store(1)->Insert(MakeTuple(1, 1));
  v.Store(2)->Insert(MakeTuple(2, 2));
  v.Store(2)->Insert(MakeTuple(3, 3));
  EXPECT_EQ(v.Store(1)->size(), 1u);
  EXPECT_EQ(v.Store(2)->size(), 2u);
  EXPECT_EQ(v.TotalTuples(), 3u);
  EXPECT_GT(v.TotalBytes(), 0u);
}

TEST(IndexVersionsTest, CutsAccessor) {
  IndexVersions v(24);
  auto cuts = EvenCuts();
  ASSERT_TRUE(v.AddVersion(1, cuts, 0).ok());
  EXPECT_EQ(v.Cuts(1), cuts);
  EXPECT_EQ(v.Cuts(2), nullptr);
}

// ----------------------------------------------------------- scan kernels

// The branch-free kernels must agree with std::lower_bound/std::upper_bound
// on every probe: duplicates, misses, below-front,
// beyond-back, empty and single-element arrays.
TEST(ScanKernelTest, BoundsMatchStdOnAdversarialArrays) {
  Rng rng(0xb07);
  std::vector<scan::KeyColumn> arrays;
  arrays.push_back({});                     // empty
  arrays.push_back({42});                   // singleton
  arrays.push_back({7, 7, 7, 7, 7});        // all duplicates
  scan::KeyColumn random;
  for (int i = 0; i < 1000; ++i) {
    random.push_back(rng.Uniform(500) * 3);  // gaps and repeats
  }
  std::sort(random.begin(), random.end());
  arrays.push_back(std::move(random));
  for (const auto& keys : arrays) {
    for (uint64_t probe = 0; probe < 1600; probe += 7) {
      const auto expect_lo = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      const auto expect_hi = static_cast<size_t>(
          std::upper_bound(keys.begin(), keys.end(), probe) - keys.begin());
      EXPECT_EQ(scan::LowerBound(keys.data(), keys.size(), probe), expect_lo);
      EXPECT_EQ(scan::UpperBound(keys.data(), keys.size(), probe), expect_hi);
    }
  }
}

TEST(ScanKernelTest, RangeBoundsCoverInclusiveRanges) {
  scan::KeyColumn keys = {10, 20, 20, 30, 40, 40, 40, 50};
  auto check = [&](uint64_t lo, uint64_t hi, size_t b, size_t e) {
    const auto [rb, re] =
        scan::RangeBounds(keys.data(), keys.size(), lo, hi);
    EXPECT_EQ(rb, b) << "[" << lo << "," << hi << "]";
    EXPECT_EQ(re, e) << "[" << lo << "," << hi << "]";
  };
  check(20, 40, 1, 7);   // both endpoints duplicated
  check(0, 5, 0, 0);     // below front
  check(55, 99, 8, 8);   // beyond back
  check(10, 50, 0, 8);   // exact full span
  check(21, 29, 3, 3);   // empty interior gap
  check(0, UINT64_MAX, 0, 8);
}

TEST(ScanKernelTest, KeyColumnsAreCacheLineAligned) {
  scan::KeyColumn keys;
  keys.resize(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(keys.data()) % scan::kCacheLineBytes,
            0u);
}

// The point filter against Interval::Contains on the values where the
// unsigned-wrap form could go wrong: the domain ends, just outside each
// bound, and full-domain intervals whose width is UINT64_MAX.
TEST(ScanKernelTest, PointInBoxMatchesIntervalContains) {
  const std::vector<Interval> ivs = {
      {0, 0}, {0, UINT64_MAX}, {5, 9}, {UINT64_MAX, UINT64_MAX},
      {1, UINT64_MAX - 1}};
  const std::vector<Value> probes = {0, 1, 4, 5, 9, 10, UINT64_MAX - 1,
                                     UINT64_MAX};
  for (const Interval& a : ivs) {
    for (const Interval& b : ivs) {
      const scan::Box box = {a.lo, a.hi - a.lo, b.lo, b.hi - b.lo};
      for (Value x : probes) {
        for (Value y : probes) {
          const Value p[2] = {x, y};
          EXPECT_EQ(scan::PointInBox(p, box.data(), 2),
                    a.Contains(x) && b.Contains(y))
              << "[" << a.lo << "," << a.hi << "]x[" << b.lo << "," << b.hi
              << "] at (" << x << "," << y << ")";
        }
      }
    }
  }
}

TEST(ScanKernelTest, FilterPointsEmitsMatchingIndicesInOrder) {
  // Three-dimensional column; rows 1, 3 and 4 lie inside the box.
  const scan::PointColumn points = {9, 0, 0,  2, 2, 2,  2, 9, 2,
                                    1, 1, 1,  3, 3, 3,  0, 0, 0};
  const scan::Box box = {1, 2, 0, 3, 1, 2};  // [1,3] x [0,3] x [1,3]
  std::vector<size_t> hits;
  scan::FilterPoints(points.data(), 3, 0, 6, box.data(),
                     [&hits](size_t i) { hits.push_back(i); });
  EXPECT_EQ(hits, (std::vector<size_t>{1, 3, 4}));
  hits.clear();
  scan::FilterPoints(points.data(), 3, 2, 4, box.data(),
                     [&hits](size_t i) { hits.push_back(i); });
  EXPECT_EQ(hits, (std::vector<size_t>{3}));
}

}  // namespace
}  // namespace mind
