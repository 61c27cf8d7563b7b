// Hierarchical compressed-bitmap backend (DESIGN.md §13, docs/BACKENDS.md).
//
// Rows are kept in arrival order: the carried rows in one flat vector, with
// a parallel key column and a dims-stride point column. The index is a
// two-level directory of word-aligned run-length-compressed bitmaps over the
// key space:
//
//   fine level     top kBucketBits (12) key bits -> bitmap of row ids
//   summary level  top kSummaryBits (6) key bits -> union of its 64 children
//
// Appending a row sets one bit in its fine bucket and one in its summary
// bucket — O(1) always, no re-sort and no merge, which is why this layout
// wins ingest-heavy churn. A range scan walks the (sparse, ordered) bucket
// directories: summary buckets wholly inside the range are decoded from the
// single summary bitmap, partially covered ones descend to fine buckets, and
// only fine buckets straddling a range endpoint re-check row keys. Each
// decoded row id is tested against the query box in the point column
// (scan::PointInBox, the kernel the sorted runs use); only matches are
// emitted. With the default cover granularity (cover_len == kBucketBits)
// every merged cover range is fine-bucket aligned, so that straddle path
// never runs and the rows examined are exactly the rows a sorted-run scan
// examines.
#ifndef MIND_STORAGE_BITMAP_BACKEND_H_
#define MIND_STORAGE_BITMAP_BACKEND_H_

#include <cstdint>
#include <vector>

#include "storage/index_backend.h"
#include "storage/scan_kernels.h"

namespace mind {

namespace telemetry {
class Counter;
}  // namespace telemetry

/// Word-aligned RLE bitmap (WAH-style) over 63-bit logical chunks.
///
/// Encoded words: MSB 0 -> literal carrying the next 63 bits; MSB 1 -> fill,
/// bit 62 the fill value, low 62 bits the run length in 63-bit chunks. The
/// chunk currently being filled stays in `active_` and is encoded only when
/// a Set crosses into a later chunk, so Set is append-only: positions must
/// strictly increase (row ids do).
class RleBitmap {
 public:
  /// Sets bit `pos`; `pos` must be greater than every previously set bit.
  void Set(uint64_t pos);

  /// Number of set bits.
  uint64_t cardinality() const { return count_; }

  /// Physical encoded words (the active chunk counts as one).
  uint64_t words() const { return words_.size() + 1; }

  /// Invokes `fn(pos)` for every set bit in increasing position order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    uint64_t pos = 0;
    for (uint64_t w : words_) {
      if ((w & kFillFlag) != 0) {
        const uint64_t chunks = w & kRunMask;
        if ((w & kFillValueBit) != 0) {
          for (uint64_t i = 0; i < chunks * 63; ++i) fn(pos + i);
        }
        pos += chunks * 63;
      } else {
        for (uint64_t bits = w; bits != 0; bits &= bits - 1) {
          fn(pos + static_cast<uint64_t>(__builtin_ctzll(bits)));
        }
        pos += 63;
      }
    }
    for (uint64_t bits = active_; bits != 0; bits &= bits - 1) {
      fn(pos + static_cast<uint64_t>(__builtin_ctzll(bits)));
    }
  }

  /// Structural word invariants: fills have nonzero runs, decoded length
  /// matches the active chunk's base, decoded set bits match cardinality().
  /// `what`/`bucket` label the owning bucket in diagnostics. Returns OK
  /// trivially when MIND_VALIDATORS is off.
  Status Validate(const char* what, uint32_t bucket) const;

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  static constexpr uint64_t kFillFlag = uint64_t{1} << 63;
  static constexpr uint64_t kFillValueBit = uint64_t{1} << 62;
  static constexpr uint64_t kRunMask = kFillValueBit - 1;
  static constexpr uint64_t kLiteralMask = kFillFlag - 1;

  void FlushActive();
  void AppendFill(bool value, uint64_t chunks);

  std::vector<uint64_t> words_;  // encoded chunks before the active one
  uint64_t active_ = 0;          // literal bits of chunk [chunk_base_, +63)
  uint64_t chunk_base_ = 0;      // logical position of active_'s bit 0
  uint64_t next_pos_ = 0;        // smallest position Set still accepts
  uint64_t count_ = 0;           // set bits
};

/// Sorted flat bucket directory: bucket ids in one contiguous cache-line-
/// aligned array searched with the branch-free prefetching kernels, bitmaps
/// in a parallel array. Replaces the former std::map directories: a probe
/// touches 16 ids per line instead of chasing red-black tree pointers, and a
/// range walk is a linear sweep over both arrays. Inserting a *new* bucket
/// shifts the tail, but the directory is bounded (2^kBucketBits entries) and
/// the hot path — appending to an existing bucket — never inserts.
class BucketDirectory {
 public:
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  uint32_t id_at(size_t i) const { return ids_[i]; }
  const RleBitmap& map_at(size_t i) const { return maps_[i]; }
  RleBitmap& map_at(size_t i) { return maps_[i]; }

  /// First position whose bucket id is >= `id`; size() if none.
  size_t LowerBound(uint32_t id) const {
    return scan::LowerBound(ids_.data(), ids_.size(), id);
  }

  /// The bitmap for `id`, inserted empty at its sorted position if absent.
  RleBitmap& Get(uint32_t id) {
    const size_t i = LowerBound(id);
    if (i < ids_.size() && ids_[i] == id) return maps_[i];
    ids_.insert(ids_.begin() + static_cast<long>(i), id);
    maps_.insert(maps_.begin() + static_cast<long>(i), RleBitmap());
    return maps_[i];
  }

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  std::vector<uint32_t, scan::AlignedAlloc<uint32_t>> ids_;  // sorted
  std::vector<RleBitmap> maps_;  // maps_[i] indexes bucket ids_[i]'s rows
};

class BitmapIndexBackend final : public IndexBackend {
 public:
  /// Fine bucket = top 12 key bits: matches TupleStoreOptions::cover_len's
  /// default, which makes merged cover ranges bucket-aligned (see the file
  /// comment). Summary bucket = top 6 bits, 64 fine children each.
  static constexpr int kBucketBits = 12;
  static constexpr int kSummaryBits = 6;

  // A null registry leaves behavior and digests identical (docs/BACKENDS.md).
  // mind-lint: allow(backend-purity): optional counters per docs/BACKENDS.md
  BitmapIndexBackend(size_t dims, telemetry::MetricsRegistry* metrics);

  IndexBackendKind kind() const override { return IndexBackendKind::kBitmap; }
  void Append(uint64_t key, const Value* point, StoredRow row) override;
  /// Bitmaps are append-final: nothing to merge, nothing to re-sort.
  void Compact() override {}
  size_t size() const override { return rows_.size(); }
  uint64_t ScanRange(const KeyRange& kr, const scan::Box& box,
                     RowConsumer& out) const override;
  void ScanAllRows(RowConsumer& out) const override;
  Status ValidateInvariants(const CutTree& cuts, int code_len,
                            uint64_t expect_bytes) const override;

  size_t fine_buckets() const { return fine_.size(); }
  size_t summary_buckets() const { return summary_.size(); }

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  static uint32_t FineBucket(uint64_t key) {
    return static_cast<uint32_t>(key >> (64 - kBucketBits));
  }
  static uint32_t SummaryBucket(uint64_t key) {
    return static_cast<uint32_t>(key >> (64 - kSummaryBits));
  }

  // Emits the rows of `bm` whose points lie inside `box` and returns how
  // many rows it examined; with `kr`, rows keyed outside it are skipped
  // unexamined (the straddle path).
  uint64_t EmitMatches(const RleBitmap& bm, const scan::Box& box,
                       const KeyRange* kr, RowConsumer& out) const;
  void Emit(uint64_t id, RowConsumer& out) const;

  size_t dims_;
  // Arrival order, parallel: row id i is keys_[i], the dims coordinates at
  // points_[i * dims_], and rows_[i]. Bitmaps hold row ids.
  std::vector<StoredRow> rows_;
  scan::KeyColumn keys_;
  scan::PointColumn points_;
  // Sparse ordered directories: only non-empty buckets exist, and ordered
  // iteration gives range scans and validation a deterministic walk.
  BucketDirectory fine_;
  BucketDirectory summary_;
  // storage.backend.bitmap.* counters; null without a registry.
  // mind-lint: allow(backend-purity): optional counter per docs/BACKENDS.md
  telemetry::Counter* set_bits_ = nullptr;
};

}  // namespace mind

#endif  // MIND_STORAGE_BITMAP_BACKEND_H_
