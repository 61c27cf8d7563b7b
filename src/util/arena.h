// Pool allocation for the bounded-memory scale layer (CoMo's pool.c idiom,
// DESIGN.md §14), built for the simulator's steady-state churn — a message
// or event payload is allocated, lives for one network hop or one window,
// and dies — where general-purpose malloc pays metadata, locking and
// fragmentation for no benefit.
//
// pool::Allocate / pool::Deallocate are fixed-size free-list pools over a
// small set of size classes. Freed blocks are recycled, slab memory is
// carved in large chunks and never returned mid-run, so the pool's footprint
// is the high-water mark of *live* objects, not of allocation traffic. Each
// thread owns a cache (free lists + slabs); a block freed on a different
// thread than it was allocated on simply migrates to the freeing thread's
// cache. Retired caches (worker threads of a destroyed parallel engine) park
// their slabs in a central depot for the next engine's workers to adopt, so
// repeated engine construction cannot grow memory.
//
// Determinism: pool state is storage recycling only. No address, counter or
// high-water mark may feed back into simulation behaviour; stats exist for
// telemetry gauges (`memory.pool.*`) published from serial context.
//
// This header lives in src/util (outside the analyzer's concurrency fence) on
// purpose: the thread cache registry needs one mutex and two relaxed atomics,
// and every linted directory gets pooled allocation through MakeMessage /
// EventFn instead of raw new (the `raw-alloc` lint enforces this).
#ifndef MIND_UTIL_ARENA_H_
#define MIND_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace mind {
namespace pool {

/// Size classes, in bytes. Requests above the largest class take the
/// ::operator new fallback and are counted in Stats::oversize_allocs — the
/// "allocations outside pools" telemetry the fig22 bench gates on.
inline constexpr size_t kClassSizes[] = {64, 128, 256, 512, 1024};
inline constexpr size_t kClassCount = sizeof(kClassSizes) / sizeof(size_t);
inline constexpr size_t kMaxPooledBytes = kClassSizes[kClassCount - 1];

/// Allocates `n` bytes from the calling thread's pool cache (max_align_t
/// aligned). Falls back to ::operator new above kMaxPooledBytes.
void* Allocate(size_t n);

/// Returns a block to the calling thread's cache; `n` must be the size passed
/// to Allocate.
void Deallocate(void* p, size_t n) noexcept;

/// Aggregate pool statistics across all thread caches (live and retired).
/// Telemetry-only: never feed these back into simulation state.
struct Stats {
  int64_t live_bytes = 0;      ///< pooled bytes currently handed out
  int64_t peak_bytes = 0;      ///< high-water mark of live_bytes
  uint64_t slab_bytes = 0;     ///< bytes reserved from the OS in slabs
  uint64_t allocs = 0;         ///< pooled allocations served
  uint64_t frees = 0;          ///< pooled blocks returned
  uint64_t oversize_allocs = 0;  ///< requests above kMaxPooledBytes
  uint64_t oversize_bytes = 0;   ///< bytes of those requests (cumulative)
};

/// Sums the counters of every cache plus the retired-cache depot. Cheap
/// enough to call per bench sample; serial context recommended (worker
/// threads may still be mutating their own counters mid-phase).
Stats GatherStats();

/// Resets the aggregate peak to the current live volume (serial context).
void ResetPeak();

/// Live heap in bytes, read inside the process: the C allocator's in-use
/// bytes (glibc mallinfo2: uordblks + hblkhd) minus the pools' free slab
/// bytes (slab_bytes - live_bytes). Slabs come from ::operator new, so the
/// allocator counts a pooled-but-free block as in use; this reading does
/// not. 0 where the allocator cannot be read: outside glibc, and under a
/// sanitizer runtime that replaces malloc. Telemetry-only, like Stats.
uint64_t LiveHeapBytes();

/// std-allocator adapter over the pool, for std::allocate_shared message
/// construction (sim/message.h MakeMessage) and small pooled containers.
template <typename T>
struct PooledAllocator {
  using value_type = T;

  PooledAllocator() = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) { return static_cast<T*>(Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { Deallocate(p, n * sizeof(T)); }

  friend bool operator==(const PooledAllocator&, const PooledAllocator&) {
    return true;
  }
  friend bool operator!=(const PooledAllocator&, const PooledAllocator&) {
    return false;
  }
};

}  // namespace pool
}  // namespace mind

#endif  // MIND_UTIL_ARENA_H_
