// Cache-conscious scan primitives under the sorted-runs store layout.
//
// The motivating observation ("Fast Query Processing by Distributing an
// Index over CPU Caches", PAPERS.md) is that a range probe's cost is cache
// misses, not comparisons. Five techniques, all layout-transparent:
//
//  * branch-free binary search: the classic base += (probe < key) ? half : 0
//    form compiles to a conditional move, so the probe loop has no
//    mispredicted branch and the next iteration's two candidate midpoints
//    can be prefetched before the current compare resolves;
//  * parallel key columns: runs are searched as a contiguous uint64_t array
//    (8 keys per cache line, 64-byte aligned via AlignedAlloc) instead of
//    striding through row structs — the last three probe levels of a
//    4k-row run share one line instead of touching three;
//  * two-bound range scans: one LowerBound for kr.lo plus one UpperBound
//    for kr.hi turn the filter loop into a pure [begin, end) sweep with no
//    per-row hi check;
//  * resumed bounds: a cover's ranges ascend and are disjoint, so each
//    range's bounds lie at or past the previous range's end. RangeBoundsFrom
//    gallops forward from there (probes at +0, +1, +3, +7, ..., then a
//    binary search of the last doubling): a bound d entries on costs
//    O(log d) probes on lines the previous range just warmed, not a fresh
//    O(log n) descent from the middle of the run;
//  * inline point columns and a mask filter: each run keeps its rows'
//    indexed points as one dims-stride Value column, so the rectangle
//    filter reads fixed-width coordinates sequentially instead of chasing a
//    heap vector per row. For 3 dims, the width the schemas use (the
//    paper's three indices, the perfbench workloads, most benches),
//    FilterPoints runs a kernel compiled for that width: it tests up to 64
//    rows with no branch, one bit per row in a mask word, and only then
//    emits the set bits in index order. Other widths take the generic
//    per-row loop. Only rows that pass are handed on.
//
// Prefetch is a pure hint: it never changes a result, only which lines are
// in flight. The micro-benches BM_CoverProbe and BM_ScanRangeSorted time
// these kernels in isolation.
#ifndef MIND_STORAGE_SCAN_KERNELS_H_
#define MIND_STORAGE_SCAN_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace mind {
namespace scan {

/// Cache-line size assumed by the aligned allocator and the prefetch
/// distance math. 64 bytes everywhere this project runs.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Read-prefetch with high temporal locality. A plain function (not a macro)
/// so call sites stay greppable; compiles to one prefetcht0 / prfm.
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 3); }

/// Minimal cache-line-aligned allocator: run key and point columns start on a
/// line boundary, so key i and key i+7 never straddle
/// one avoidably.
template <typename T>
struct AlignedAlloc {
  using value_type = T;

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }
  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) {
    return true;
  }
};

/// Contiguous cache-line-aligned key column (the "run node" layout).
using KeyColumn = std::vector<uint64_t, AlignedAlloc<uint64_t>>;

/// First index i in the sorted [keys, keys+n) with keys[i] >= key; n if none.
/// Branch-free: the interval update is a conditional move, and each level
/// prefetches both candidate midpoints of the next level.
template <typename K>
inline std::size_t LowerBound(const K* keys, std::size_t n, K key) {
  if (n == 0) return 0;
  const K* base = keys;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    PrefetchRead(base + half / 2);
    PrefetchRead(base + half + (len - half) / 2);
    base += (base[half - 1] < key) ? half : 0;
    len -= half;
  }
  return static_cast<std::size_t>(base - keys) + (*base < key ? 1 : 0);
}

/// First index i in the sorted [keys, keys+n) with keys[i] > key; n if none.
template <typename K>
inline std::size_t UpperBound(const K* keys, std::size_t n, K key) {
  if (n == 0) return 0;
  const K* base = keys;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    PrefetchRead(base + half / 2);
    PrefetchRead(base + half + (len - half) / 2);
    base += (base[half - 1] <= key) ? half : 0;
    len -= half;
  }
  return static_cast<std::size_t>(base - keys) + (*base <= key ? 1 : 0);
}

/// The [begin, end) index range of keys inside the inclusive [lo, hi] range:
/// one LowerBound for lo, one UpperBound for hi over the remaining suffix.
/// The caller's emit loop needs no per-row hi comparison afterwards.
template <typename K>
inline std::pair<std::size_t, std::size_t> RangeBounds(const K* keys,
                                                       std::size_t n, K lo,
                                                       K hi) {
  const std::size_t b = LowerBound(keys, n, lo);
  const std::size_t e = b + UpperBound(keys + b, n - b, hi);
  return {b, e};
}

/// First index i >= from in the sorted [keys, keys+n) with keys[i] >= key;
/// n if none. Every key before `from` must lie below `key`. Gallops: probes
/// from, from+1, from+3, from+7, ... until a key reaches `key`, then
/// binary-searches the last doubling.
template <typename K>
inline std::size_t GallopLowerBound(const K* keys, std::size_t n,
                                    std::size_t from, K key) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < n && keys[hi] < key; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, n);
  return lo + LowerBound(keys + lo, hi - lo, key);
}

/// First index i >= from in the sorted [keys, keys+n) with keys[i] > key;
/// n if none. Every key before `from` must lie at or below `key`.
template <typename K>
inline std::size_t GallopUpperBound(const K* keys, std::size_t n,
                                    std::size_t from, K key) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < n && keys[hi] <= key; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, n);
  return lo + UpperBound(keys + lo, hi - lo, key);
}

/// RangeBounds for a range whose lo lies above every key before `from` —
/// the previous range's end, when a cover's ascending, disjoint ranges are
/// probed in order. Both bounds gallop: lo from `from`, hi from lo's bound.
template <typename K>
inline std::pair<std::size_t, std::size_t> RangeBoundsFrom(const K* keys,
                                                           std::size_t n,
                                                           std::size_t from,
                                                           K lo, K hi) {
  const std::size_t b = GallopLowerBound(keys, n, from, lo);
  return {b, GallopUpperBound(keys, n, b, hi)};
}

/// Dims-stride column of indexed points: row i's coordinates are
/// [i * dims, (i + 1) * dims). Same aligned layout as the key column.
using PointColumn = std::vector<uint64_t, AlignedAlloc<uint64_t>>;

/// A query rectangle as the point filter reads it: per dimension d,
/// box[2d] is the interval's lo and box[2d + 1] its width hi - lo, which
/// needs lo <= hi: an inverted interval holds no point and has no box.
using Box = std::vector<uint64_t>;

/// True if the `dims` coordinates at `p` lie inside `box`. One unsigned
/// compare per dimension: a coordinate below lo wraps to a huge offset and
/// fails the width test, so there is no separate lo check and no branch
/// inside the loop.
inline bool PointInBox(const uint64_t* p, const uint64_t* box,
                       std::size_t dims) {
  bool in = true;
  for (std::size_t d = 0; d < dims; ++d) {
    in &= (p[d] - box[2 * d]) <= box[2 * d + 1];
  }
  return in;
}

/// Rows one mask word of the fixed-width filter covers.
inline constexpr std::size_t kMaskRows = 64;

/// FilterPoints for points of exactly D coordinates: the box sits in
/// registers, each block of up to kMaskRows rows is tested into a bit mask
/// with no branch, and the set bits are emitted lowest first.
template <std::size_t D, typename Emit>
inline void FilterPointsFixed(const uint64_t* points, std::size_t begin,
                              std::size_t end, const uint64_t* box,
                              Emit& emit) {
  uint64_t lo[D] = {};
  uint64_t width[D] = {};
  for (std::size_t d = 0; d < D; ++d) {
    lo[d] = box[2 * d];
    width[d] = box[2 * d + 1];
  }
  const uint64_t* p = points + begin * D;
  for (std::size_t i = begin; i < end; i += kMaskRows) {
    const std::size_t rows = std::min(kMaskRows, end - i);
    uint64_t mask = 0;
    for (std::size_t j = 0; j < rows; ++j, p += D) {
      bool in = true;
      for (std::size_t d = 0; d < D; ++d) in &= (p[d] - lo[d]) <= width[d];
      mask |= static_cast<uint64_t>(in) << j;
    }
    for (; mask != 0; mask &= mask - 1) {
      emit(i + static_cast<std::size_t>(std::countr_zero(mask)));
    }
  }
}

/// Sweeps rows [begin, end) of a point column and calls emit(i), in index
/// order, for each row whose point lies inside `box`. Sequential reads: the
/// hardware prefetcher streams the column, so the loop carries no software
/// hint. Width 3 takes the mask kernel; others test row by row.
template <typename Emit>
inline void FilterPoints(const uint64_t* points, std::size_t dims,
                         std::size_t begin, std::size_t end,
                         const uint64_t* box, Emit&& emit) {
  if (dims == 3) return FilterPointsFixed<3>(points, begin, end, box, emit);
  const uint64_t* p = points + begin * dims;
  for (std::size_t i = begin; i < end; ++i, p += dims) {
    if (PointInBox(p, box, dims)) emit(i);
  }
}

}  // namespace scan
}  // namespace mind

#endif  // MIND_STORAGE_SCAN_KERNELS_H_
