// Memoized query covers for the per-node query path.
//
// CutTree::Cover is a pure function of an immutable cut tree, a query
// rectangle and the cover length, yet the query path recomputes it for every
// store scan — twice per resolved sub-query, since the primary and replica
// stores of a version share one embedding. The cache maps (rect digest, cuts
// identity, cover length) to the cover lowered into *merged key ranges*:
// abutting codes collapse into one range, so adjacent codes cost one binary
// search instead of many.
//
// Entries pin their cut tree (CutTreeRef), so pointer identity can never be
// confused by allocator address reuse, and every hit is verified against the
// stored rectangle — a digest collision degrades to a recompute, never to
// wrong ranges. Because entries are pure functions of pinned immutable inputs
// they cannot go stale; Invalidate() exists to release memory (and the cut
// trees the entries pin) when a new index version opens, an index is
// dropped, or the node crashes.
#ifndef MIND_STORAGE_COVER_CACHE_H_
#define MIND_STORAGE_COVER_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "space/cut_tree.h"
#include "space/rect.h"

namespace mind {

namespace telemetry {
class Counter;
class MetricsRegistry;
}  // namespace telemetry

/// Inclusive interval [lo, hi] in tuple-store key space (left-aligned code
/// bits; see TupleStore).
struct KeyRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Left-aligned 64-bit key of a code, and the inclusive end of the key range
/// its region occupies. The store's row keys and the cover's ranges live in
/// this one key space.
inline uint64_t CodeKey(const BitCode& code) {
  if (code.length() == 0) return 0;
  return code.bits() << (64 - code.length());
}
inline uint64_t CodeKeyEnd(const BitCode& code) {
  if (code.length() == 0) return UINT64_MAX;
  uint64_t span =
      (code.length() == 64) ? 0 : ((uint64_t{1} << (64 - code.length())) - 1);
  return CodeKey(code) + span;
}

/// A query cover lowered to key space, abutting codes merged — or `fallback`
/// when Cover() overflowed `max_codes` and the scan must walk every row.
struct CoverRanges {
  bool fallback = false;
  std::vector<KeyRange> ranges;
};

/// What a cover walk reuses from one call to the next: the cut-tree cursor
/// it descends in place and the buffer its codes land in. Kept by the
/// caller, so a warm walk allocates only the ranges it returns.
struct CoverScratch {
  CutTree::Cursor cursor;
  std::vector<BitCode> codes;
};

/// Merged key ranges of `cuts.Cover(rect, len, max_codes)` (fallback on
/// cover overflow), walked in `scratch`. Pure in its result; the cache and
/// cache-less scans share it.
CoverRanges ComputeCoverRanges(const CutTree& cuts, const Rect& rect, int len,
                               size_t max_codes, CoverScratch* scratch);

class CoverCache {
 public:
  /// `metrics`, when non-null, receives `storage.cover_cache.hits` and
  /// `storage.cover_cache.misses`.
  explicit CoverCache(telemetry::MetricsRegistry* metrics = nullptr);

  /// The merged ranges for (rect, cuts, len), computed and cached on miss.
  /// The returned pointer is valid until the next GetOrCompute or
  /// Invalidate call.
  const CoverRanges* GetOrCompute(const Rect& rect, const CutTreeRef& cuts,
                                  int len, size_t max_codes);

  /// Drops every entry and releases the table's memory, walk scratch
  /// included, now. A lazy clear at the next lookup would keep a crashed
  /// node's trees pinned, and leave a node that is not queried again
  /// holding its old covers.
  void Invalidate();

  /// Cached entry count.
  size_t size() const { return entries_; }

  /// Entry budget; the table clears wholesale when it fills. Query workloads
  /// re-probe the same few rectangles per distributed query (one per store
  /// per sub-query), so a small table already captures the win.
  static constexpr size_t kMaxEntries = 512;

 private:
  struct Entry {
    Rect rect;
    CutTreeRef cuts;  // pinned: identity stays unique for the entry's life
    int len = 0;
    CoverRanges cover;
  };

  // digest-keyed chains: a hash collision is resolved by the full (rect,
  // cuts, len) comparison below, never trusted.
  std::unordered_map<uint64_t, std::vector<Entry>> table_;
  size_t entries_ = 0;
  CoverScratch scratch_;  // the walk of every miss
  telemetry::Counter* hits_ = nullptr;
  telemetry::Counter* misses_ = nullptr;
};

}  // namespace mind

#endif  // MIND_STORAGE_COVER_CACHE_H_
