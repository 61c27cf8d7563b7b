#include "util/arena.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

// A sanitizer runtime replaces malloc, so glibc's counters would not see
// the process's allocations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MIND_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MIND_MALLOC_REPLACED 1
#endif
#endif

namespace mind {
namespace pool {
namespace {

constexpr size_t kSlabBytes = 256 * 1024;

// Aggregate live/peak accounting shared by every cache. Relaxed is enough:
// the counters are telemetry, and GatherStats() runs in serial context.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void NoteLiveDelta(int64_t delta) {
  const int64_t live =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

int ClassFor(size_t n) {
  for (size_t c = 0; c < kClassCount; ++c) {
    if (n <= kClassSizes[c]) return static_cast<int>(c);
  }
  return -1;
}

// One slab: a raw chunk blocks are carved from. Slabs are only released when
// their owning cache retires *and* the depot is destroyed at process exit.
struct Slab {
  Slab* next = nullptr;
  size_t size = 0;
  size_t used = 0;
  // Block storage follows the header, max_align_t aligned.
  unsigned char* base() {
    return reinterpret_cast<unsigned char*>(this) + HeaderBytes();
  }
  static size_t HeaderBytes() {
    const size_t a = alignof(std::max_align_t);
    return (sizeof(Slab) + a - 1) & ~(a - 1);
  }
};

struct FreeBlock {
  FreeBlock* next;
};

// Per-thread cache: one free list per class plus a slab chain.
struct ThreadCache {
  FreeBlock* free_lists[kClassCount] = {};
  Slab* slabs = nullptr;
  // Counters (monotone; aggregated by GatherStats).
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t slab_bytes = 0;
  uint64_t oversize_allocs = 0;
  uint64_t oversize_bytes = 0;

  ThreadCache();
  ~ThreadCache();
};

// Depot of retired caches' state: free lists, slabs and counter totals live
// on after their thread exits; the next cache to spin up adopts them.
struct Depot {
  std::mutex mu;
  FreeBlock* free_lists[kClassCount] = {};
  Slab* slabs = nullptr;
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t slab_bytes = 0;
  uint64_t oversize_allocs = 0;
  uint64_t oversize_bytes = 0;
  std::vector<ThreadCache*> live_caches;

  static Depot& Get() {
    // Leaked intentionally: worker-thread caches retire into the depot at
    // thread exit, whose order against static destruction is unspecified.
    static Depot* d = new Depot();
    return *d;
  }
};

ThreadCache::ThreadCache() {
  Depot& depot = Depot::Get();
  std::lock_guard<std::mutex> lock(depot.mu);
  // Adopt any retired free blocks and slabs before growing fresh ones.
  for (size_t cls = 0; cls < kClassCount; ++cls) {
    free_lists[cls] = depot.free_lists[cls];
    depot.free_lists[cls] = nullptr;
  }
  slabs = depot.slabs;
  depot.slabs = nullptr;
  depot.live_caches.push_back(this);
}

ThreadCache::~ThreadCache() {
  Depot& depot = Depot::Get();
  std::lock_guard<std::mutex> lock(depot.mu);
  for (size_t c = 0; c < kClassCount; ++c) {
    while (FreeBlock* b = free_lists[c]) {
      free_lists[c] = b->next;
      b->next = depot.free_lists[c];
      depot.free_lists[c] = b;
    }
  }
  while (Slab* s = slabs) {
    slabs = s->next;
    s->next = depot.slabs;
    depot.slabs = s;
  }
  depot.allocs += allocs;
  depot.frees += frees;
  depot.slab_bytes += slab_bytes;
  depot.oversize_allocs += oversize_allocs;
  depot.oversize_bytes += oversize_bytes;
  for (auto it = depot.live_caches.begin(); it != depot.live_caches.end();
       ++it) {
    if (*it == this) {
      depot.live_caches.erase(it);
      break;
    }
  }
}

// The cache is a value-type thread_local so its destructor runs at thread
// exit and donates slabs + free lists to the depot — a destroyed parallel
// engine's workers hand their memory to the next engine's workers instead of
// stranding it.
ThreadCache& Cache() {
  thread_local ThreadCache cache;
  return cache;
}

void* CarveFromSlab(ThreadCache& cache, size_t block_bytes) {
  Slab* s = cache.slabs;
  if (s == nullptr || s->used + block_bytes > s->size) {
    const size_t payload = kSlabBytes - Slab::HeaderBytes();
    const size_t size = block_bytes > payload ? block_bytes : payload;
    void* mem = ::operator new(Slab::HeaderBytes() + size,
                               std::align_val_t{alignof(std::max_align_t)});
    s = new (mem) Slab();
    s->size = size;
    s->next = cache.slabs;
    cache.slabs = s;
    cache.slab_bytes += Slab::HeaderBytes() + size;
  }
  void* p = s->base() + s->used;
  s->used += block_bytes;
  return p;
}

}  // namespace

void* Allocate(size_t n) {
  if (n == 0) n = 1;
  const int cls = ClassFor(n);
  ThreadCache& cache = Cache();
  if (cls < 0) {
    ++cache.oversize_allocs;
    cache.oversize_bytes += n;
    return ::operator new(n, std::align_val_t{alignof(std::max_align_t)});
  }
  const size_t block = kClassSizes[cls];
  ++cache.allocs;
  NoteLiveDelta(static_cast<int64_t>(block));
  if (FreeBlock* b = cache.free_lists[cls]) {
    cache.free_lists[cls] = b->next;
    return b;
  }
  return CarveFromSlab(cache, block);
}

void Deallocate(void* p, size_t n) noexcept {
  if (p == nullptr) return;
  if (n == 0) n = 1;
  const int cls = ClassFor(n);
  if (cls < 0) {
    ::operator delete(p, std::align_val_t{alignof(std::max_align_t)});
    return;
  }
  ThreadCache& cache = Cache();
  ++cache.frees;
  NoteLiveDelta(-static_cast<int64_t>(kClassSizes[cls]));
  auto* b = static_cast<FreeBlock*>(p);
  b->next = cache.free_lists[cls];
  cache.free_lists[cls] = b;
}

Stats GatherStats() {
  Stats out;
  out.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  out.peak_bytes = g_peak_bytes.load(std::memory_order_relaxed);
  Depot& depot = Depot::Get();
  std::lock_guard<std::mutex> lock(depot.mu);
  out.allocs = depot.allocs;
  out.frees = depot.frees;
  out.slab_bytes = depot.slab_bytes;
  out.oversize_allocs = depot.oversize_allocs;
  out.oversize_bytes = depot.oversize_bytes;
  for (const ThreadCache* c : depot.live_caches) {
    out.allocs += c->allocs;
    out.frees += c->frees;
    out.slab_bytes += c->slab_bytes;
    out.oversize_allocs += c->oversize_allocs;
    out.oversize_bytes += c->oversize_bytes;
  }
  return out;
}

void ResetPeak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

uint64_t LiveHeapBytes() {
#if defined(__GLIBC__) && !defined(MIND_MALLOC_REPLACED)
  const struct mallinfo2 mi = mallinfo2();
  const uint64_t in_use = mi.uordblks + mi.hblkhd;
  const Stats s = GatherStats();
  const uint64_t pooled_free =
      s.slab_bytes - static_cast<uint64_t>(s.live_bytes);
  return in_use > pooled_free ? in_use - pooled_free : 0;
#else
  return 0;
#endif
}

}  // namespace pool
}  // namespace mind
