// Tests for the bounded-memory pool allocator (util/arena.h, DESIGN.md §14):
// the size classes (pool::Allocate / pool::Deallocate), thread caches and
// the retired-cache depot, and the live-heap reading fig22 gates on. The CI
// sanitizer job runs this suite under ASan+UBSan: block recycling,
// cross-thread frees and depot adoption are exactly the paths where a
// lifetime bug would hide.
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"

namespace mind {
namespace {

using pool::GatherStats;
using pool::kClassSizes;
using pool::kMaxPooledBytes;
using pool::Stats;

TEST(PoolTest, RoundTripRecyclesFreedBlocks) {
  const Stats before = GatherStats();
  void* p = pool::Allocate(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64);
  pool::Deallocate(p, 64);
  // LIFO free list: the very next same-class allocation reuses the block.
  void* q = pool::Allocate(64);
  EXPECT_EQ(q, p);
  pool::Deallocate(q, 64);

  const Stats after = GatherStats();
  EXPECT_EQ(after.allocs, before.allocs + 2);
  EXPECT_EQ(after.frees, before.frees + 2);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(PoolTest, RequestsRoundUpToTheirSizeClass) {
  const Stats before = GatherStats();
  // 100 bytes lands in the 128-byte class; live accounting uses the class
  // size, not the request size.
  void* p = pool::Allocate(100);
  const Stats mid = GatherStats();
  EXPECT_EQ(mid.live_bytes - before.live_bytes, 128);
  pool::Deallocate(p, 100);
  EXPECT_EQ(GatherStats().live_bytes, before.live_bytes);
}

TEST(PoolTest, EveryClassBoundaryAllocates) {
  for (size_t cls : kClassSizes) {
    void* p = pool::Allocate(cls);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
    std::memset(p, 0x5c, cls);
    pool::Deallocate(p, cls);
  }
}

TEST(PoolTest, ZeroByteRequestIsServed) {
  void* p = pool::Allocate(0);
  ASSERT_NE(p, nullptr);
  pool::Deallocate(p, 0);
}

TEST(PoolTest, OversizeFallsBackToHeapAndIsCounted) {
  const size_t n = kMaxPooledBytes + 1;
  const Stats before = GatherStats();
  void* p = pool::Allocate(n);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x17, n);
  const Stats mid = GatherStats();
  EXPECT_EQ(mid.oversize_allocs, before.oversize_allocs + 1);
  EXPECT_EQ(mid.oversize_bytes, before.oversize_bytes + n);
  // Oversize traffic bypasses the pools entirely: no live-byte movement.
  EXPECT_EQ(mid.live_bytes, before.live_bytes);
  pool::Deallocate(p, n);
}

TEST(PoolTest, PeakTracksHighWaterAndResets) {
  pool::ResetPeak();
  const Stats base = GatherStats();
  std::vector<void*> blocks;
  for (int i = 0; i < 32; ++i) blocks.push_back(pool::Allocate(256));
  const Stats loaded = GatherStats();
  EXPECT_GE(loaded.peak_bytes, base.live_bytes + 32 * 256);
  for (void* p : blocks) pool::Deallocate(p, 256);
  // Peak survives the frees until explicitly reset to the live volume.
  EXPECT_GE(GatherStats().peak_bytes, loaded.peak_bytes);
  pool::ResetPeak();
  const Stats reset = GatherStats();
  EXPECT_EQ(reset.peak_bytes, reset.live_bytes);
}

TEST(PoolTest, CrossThreadFreeMigratesToTheFreeingCache) {
  const Stats before = GatherStats();
  void* p = pool::Allocate(64);
  std::memset(p, 0x42, 64);
  std::thread t([p] { pool::Deallocate(p, 64); });
  t.join();
  const Stats after = GatherStats();
  EXPECT_EQ(after.frees, before.frees + 1);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(PoolTest, RetiredCacheDonatesBlocksToTheNextThread) {
  // Thread 1 allocates and frees, then exits: its free list and slabs land
  // in the depot.
  std::thread t1([] {
    void* p = pool::Allocate(512);
    std::memset(p, 0x33, 512);
    pool::Deallocate(p, 512);
  });
  t1.join();

  // Thread 2 adopts the donated state: serving the same class again must not
  // reserve any new slab memory.
  const Stats before = GatherStats();
  std::thread t2([] {
    void* p = pool::Allocate(512);
    std::memset(p, 0x44, 512);
    pool::Deallocate(p, 512);
  });
  t2.join();
  const Stats after = GatherStats();
  EXPECT_EQ(after.slab_bytes, before.slab_bytes);
  EXPECT_EQ(after.allocs, before.allocs + 1);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(PoolTest, PooledAllocatorDrivesStdContainers) {
  std::vector<int, pool::PooledAllocator<int>> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i * 3);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i * 3);

  struct Payload {
    uint64_t a;
    uint64_t b;
  };
  auto sp = std::allocate_shared<Payload>(pool::PooledAllocator<Payload>(),
                                          Payload{7, 9});
  EXPECT_EQ(sp->a, 7u);
  EXPECT_EQ(sp->b, 9u);
}

// ---------------------------------------------------------------- live heap

// pool::LiveHeapBytes reads 0 only where the allocator cannot be read
// (outside glibc, or under a sanitizer runtime that replaces malloc).
#define SKIP_IF_HEAP_UNREADABLE()                           \
  if (pool::LiveHeapBytes() == 0) {                         \
    GTEST_SKIP() << "allocator not readable in this build"; \
  }

// Keeps a test allocation observable, so the compiler cannot elide the
// new/delete pair around it.
char* volatile g_escape = nullptr;

TEST(LiveHeapTest, AllocatingRaisesTheReadingAndFreeingLowersIt) {
  SKIP_IF_HEAP_UNREADABLE();
  for (size_t n : {size_t{4096}, size_t{1} << 20}) {
    const uint64_t before = pool::LiveHeapBytes();
    auto* p = new char[n];
    std::memset(p, 0x5a, n);
    g_escape = p;
    const uint64_t held = pool::LiveHeapBytes();
    EXPECT_GE(held, before + n) << n << " bytes";
    delete[] p;
    EXPECT_LE(pool::LiveHeapBytes() + n, held) << n << " bytes";
  }
}

TEST(LiveHeapTest, PooledButFreeBlocksAreNotCounted) {
  SKIP_IF_HEAP_UNREADABLE();
  // 1 024 blocks of 1 KiB: several fresh 256 KiB slabs unless the free list
  // already holds them.
  constexpr size_t kBlocks = 1024;
  constexpr size_t kBlock = 1024;
  std::vector<void*> blocks;
  blocks.reserve(kBlocks);
  const uint64_t before = pool::LiveHeapBytes();
  for (size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(pool::Allocate(kBlock));
    std::memset(blocks.back(), 0x6b, kBlock);
  }
  EXPECT_GE(pool::LiveHeapBytes(), before + kBlocks * kBlock);
  for (void* p : blocks) pool::Deallocate(p, kBlock);
  // The slabs stay reserved, yet the reading returns to within the
  // allocator's per-slab overhead (page rounding, chunk headers).
  EXPECT_LT(pool::LiveHeapBytes(), before + kBlocks * kBlock / 16);
}

}  // namespace
}  // namespace mind
