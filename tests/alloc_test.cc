// Allocation bounds of the query walks: the cover walk, the split walk, the
// completion walk and a resolver's scan rectangle must not allocate per code
// visited. This executable replaces the global operator new to count calls,
// so it holds these tests alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "mind/messages.h"
#include "mind/mind_net.h"
#include "mind/query_tracker.h"
#include "space/cut_tree.h"

namespace {
std::atomic<uint64_t> g_news{0};

void* CountedAlloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every replaceable form that pairs with a plain free: a sanitizer runtime
// must never see one side of a pair from its own allocator.
void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mind {
namespace {

// operator new calls made while running `fn`.
template <typename Fn>
uint64_t NewsDuring(Fn&& fn) {
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

Schema FourDims() {
  return Schema({{"a", 0, 9999}, {"b", 0, 9999}, {"c", 0, 9999}, {"d", 0, 9999}});
}

TEST(WalkAllocationTest, CoverAllocatesNothingPerCode) {
  const CutTree t = CutTree::Even(FourDims());
  // Three of the four dimensions whole and half of the fourth: 2 048 of the
  // 4 096 codes at length 12, after a walk through every level above them.
  const Rect query({{0, 4999}, {0, 9999}, {0, 9999}, {0, 9999}});
  CutTree::Cursor scratch;
  std::vector<BitCode> codes;
  // The first walk sizes the caller's scratch: its cursor's Rect and the
  // code buffer's doublings, nothing per code.
  const uint64_t cold = NewsDuring(
      [&] { ASSERT_TRUE(t.Cover(query, 12, 65536, &scratch, &codes).ok()); });
  ASSERT_GE(codes.size(), 1000u);
  EXPECT_LE(cold, 16u);
  // A warm walk allocates nothing at all.
  const uint64_t warm = NewsDuring(
      [&] { ASSERT_TRUE(t.Cover(query, 12, 65536, &scratch, &codes).ok()); });
  EXPECT_EQ(codes.size(), 2048u);
  EXPECT_EQ(warm, 0u);
  // The by-value form: its own scratch and buffer, still nothing per code.
  const uint64_t by_value = NewsDuring([&] {
    auto cover = t.Cover(query, 12);
    ASSERT_TRUE(cover.ok());
    EXPECT_EQ(cover->size(), 2048u);
  });
  EXPECT_LE(by_value, 16u);
}

TEST(WalkAllocationTest, SplitChainAllocatesNothingPerLevel) {
  const CutTree t = CutTree::Even(FourDims());
  const Rect query({{1000, 8000}, {1000, 8000}, {1000, 8000}, {1000, 8000}});
  CutTree::Cursor scratch;
  BitCode code;
  size_t children = 0;
  const uint64_t news = NewsDuring([&] {
    for (int level = 0; level < 10; ++level) {
      const CutTree::Children kids =
          t.IntersectingChildren(query, code, &scratch);
      ASSERT_GT(kids.size(), 0u);
      children += kids.size();
      code = kids[kids.size() - 1];
    }
  });
  EXPECT_EQ(code.length(), 10);
  EXPECT_GE(children, 10u);
  // Only the first call's cursor Rect.
  EXPECT_LE(news, 1u);
}

TEST(WalkAllocationTest, TrackerAllocatesNothingPerCodeVisited) {
  // 64 replies at length 6 tile a two-dimensional space; the tracker walks
  // down to them from the root, one split per code above them.
  auto cuts = std::make_shared<CutTree>(
      CutTree::Even(Schema({{"x", 0, 999}, {"y", 0, 999}})));
  const Rect query({{0, 999}, {0, 999}});
  uint64_t news = 0;
  bool complete = false;
  {
    QueryTracker tracker(query, BitCode(), cuts, 12);
    news = NewsDuring([&] {
      for (uint64_t i = 0; i < 64; ++i) {
        // Every other reply, then the rest: the walk stops and resumes.
        const uint64_t bits = (i < 32) ? 2 * i + 1 : 2 * (i - 32);
        tracker.AddReply(static_cast<NodeId>(i), BitCode::FromBits(bits, 6),
                         TupleColumns{});
        complete = tracker.IsComplete();
      }
    });
    EXPECT_EQ(tracker.responders().size(), 64u);
  }
  EXPECT_TRUE(complete);
  // The reply sets grow by doubling (three of them, ~7 doublings each for
  // 64 entries) and the walk stack by as many slots as it is deep; nothing
  // per split or per reply.
  EXPECT_LE(news, 48u);
}

TEST(WalkAllocationTest, ResolveBuildsNoRectPerSubQuery) {
  // Two nodes; node 0 sends node 1 resolve-only sub-queries (the §3.4
  // forward), so each message runs exactly one ResolveAndReply. Its reply
  // finds no pending query at node 0 and is dropped there.
  MindNetOptions opts;
  MindNet net(2, opts);
  ASSERT_TRUE(net.Build().ok());
  IndexDef def;
  def.name = "idx";
  def.schema = FourDims();
  ASSERT_TRUE(net.CreateIndexEverywhere(
                     def, std::make_shared<CutTree>(CutTree::Even(def.schema)))
                  .ok());
  constexpr int kSubQueries = 32;
  std::vector<std::shared_ptr<QueryMsg>> msgs;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kSubQueries; ++i) {
      auto m = MakeMessage<QueryMsg>();
      m->query_id = 1;
      m->index = def.name;
      m->version = 1;
      m->rect = Rect({{1000, 8000}, {1000, 8000}, {1000, 8000}, {0, 9999}});
      m->code = BitCode::FromBits(static_cast<uint64_t>(i), 8);
      m->originator = 0;
      m->resolve_only = true;
      msgs.push_back(std::move(m));
    }
  }
  auto resolve = [&](int round) {
    for (int i = 0; i < kSubQueries; ++i) {
      net.network().Send(0, 1, msgs[round * kSubQueries + i]);
    }
    net.sim().RunFor(FromSeconds(5));
  };
  resolve(0);  // warm: link rows, event heap, visit set, walk cursor
  const uint64_t news = NewsDuring([&] { resolve(1); });
  // Each resolve walks 8 levels and clips to the query on the node's walk
  // cursor: no region Rect, no optional copy, no intersection Rect.
  EXPECT_EQ(news, 0u);
}

}  // namespace
}  // namespace mind
