// The store layout: two sorted runs, LSM-style (DESIGN.md §13).
//
// A TupleStore owns exactly one SortedRunsBackend. The store keeps
// everything a digest or the simulation can see — cover computation (and the
// shared CoverCache), scan-efficiency counters, digests, histograms, byte
// accounting — while the layout answers one question fast: "which stored
// rows have keys inside this range and points inside this box?".
//
// A large *base* run that is always in key order absorbs compactions; a small
// *delta* run absorbs inserts. A cover scan probes both runs once per range,
// each probe resuming where the previous range ended.
// Compaction merges the delta into the base when it exceeds a size ratio of
// the base, and at daily version freeze (IndexVersions::AddVersion →
// TupleStore::Compact).
//
// A run is three parallel columns in key order: a cache-line-aligned key
// column (scan::KeyColumn), a dims-stride point column (scan::PointColumn)
// and a 16-byte meta column (RowMeta: seq, origin, and where the row's
// carried values sit). Carried values live in one flat arrival-order pool
// that never moves; only rows that have some point into it. Range probes run
// the branch-free binary search over the key column, the rectangle filter
// sweeps the point column between the two bounds (storage/scan_kernels.h),
// and only matching rows are handed out, as RowViews over the columns: a
// match reads the meta entry beside the point it just tested, and the pool
// only if the row carries values.
//
// The delta keeps the length of its sorted prefix. Appends in key order grow
// the prefix; a scan after out-of-order appends orders the unsorted tail
// once, before its first range: it gathers the tail in key order into a
// per-thread scratch buffer, then places it into the prefix from the back,
// each tail row at its key's upper bound with the entries above moved up in
// one block. One late insert between two queries costs one search and one
// move of the entries above it, and a warm scratch allocates nothing.
// Compact merges the delta's columns into the base's the same way. Equal
// keys keep arrival order throughout.
//
// The scan contract:
//
//   * ScanCover(ranges, box, fn) calls fn on each row whose key lies in one
//     of the ascending, disjoint `ranges` and whose point lies inside `box`,
//     exactly once, and on no other row. It returns the number of rows whose
//     key lies in a range, matched or not — "rows examined", a property of
//     the stored keys and the cover, not of run boundaries. Emit order is
//     the layout's: range by range, the base run's rows before the delta
//     run's, index order within each. Digests, histogram mass and
//     query-processing latency are order-independent by construction; reply
//     rows keep emit order, so a client's QueryResult (and the result
//     digest) sees it.
//   * ScanAllRows visits every row exactly once (digests, histograms).
//   * Compact() is layout-only: results, counts and digests are identical
//     whether or not it ever runs.
#ifndef MIND_STORAGE_SORTED_RUNS_BACKEND_H_
#define MIND_STORAGE_SORTED_RUNS_BACKEND_H_

#include <cstdint>
#include <span>
#include <vector>

#include "space/cut_tree.h"
#include "storage/cover_cache.h"
#include "storage/scan_kernels.h"
#include "storage/tuple.h"
#include "util/status.h"
#include "util/validate.h"

namespace mind {

namespace telemetry {
class Counter;
class MetricsRegistry;
}  // namespace telemetry

/// `RowMeta::extra` of a row that carries no values.
inline constexpr uint32_t kNoExtra = UINT32_MAX;

/// A stored row's fields besides its key and point, one 16-byte entry per
/// run entry: a match reads them from the column the scan walks in step
/// with the points, not from a per-row heap object.
struct RowMeta {
  uint64_t seq;
  int32_t origin;
  /// Offset of the row's carried values in the extras pool (their count,
  /// then the values), or kNoExtra.
  uint32_t extra;
};
static_assert(sizeof(RowMeta) == 16, "one meta entry per 16 bytes");

/// One stored row as a scan sees it: the key, the row's `dims` coordinates
/// inside a run's point column, its identity and its `extra_len` carried
/// values. Valid only during the call that receives it.
struct RowView {
  uint64_t key;
  const Value* point;
  int origin;
  uint64_t seq;
  const Value* extra;
  size_t extra_len;
};

/// The full key range: a cover-overflow fallback scan asks for it, and the
/// layout short-circuits it (every row's key lies inside).
inline constexpr KeyRange kFullKeyRange{0, UINT64_MAX};

/// Fixed per-row overhead charged to approx_bytes() on top of the tuple's
/// wire size (key + bookkeeping).
inline constexpr uint64_t kRowOverheadBytes = 16;

class SortedRunsBackend {
 public:
  /// `compaction` gates the automatic ratio trigger; an explicit Compact()
  /// call always merges (the store's compaction_enabled knob decides who
  /// calls it at version freeze). Layout-only either way. `metrics` may be
  /// null; the storage.compaction.* counters register against it otherwise.
  // mind-lint: allow(backend-purity): optional counters per DESIGN.md §13
  SortedRunsBackend(size_t dims, bool compaction, size_t compact_min_delta,
                    size_t compact_ratio, telemetry::MetricsRegistry* metrics);

  /// Adds one row: its key, its `dims` coordinates at `point` (copied into
  /// the point column), its identity and its `extra_len` carried values at
  /// `extra` (copied into the pool). Keys arrive in any order.
  void Append(uint64_t key, const Value* point, int origin, uint64_t seq,
              const Value* extra, size_t extra_len);
  /// Merges the delta run into the base run now. Layout-only.
  void Compact();
  size_t size() const { return base_.size() + delta_.size(); }
  size_t base_size() const { return base_.size(); }
  size_t delta_size() const { return delta_.size(); }

  /// Calls fn(const RowView&) on exactly the rows whose key lies in one of
  /// `ranges` and whose point lies inside `box` (scan::PointInBox), each
  /// once. `ranges` ascend and are disjoint (a CoverRanges list); a lone
  /// kFullKeyRange walks both runs as they sit. Returns the number of rows
  /// whose key lies in a range, matched or not ("rows examined").
  template <typename Fn>
  uint64_t ScanCover(std::span<const KeyRange> ranges, const scan::Box& box,
                     Fn&& fn) const;

  /// Calls fn(const RowView&) on every row exactly once.
  template <typename Fn>
  void ScanAllRows(Fn&& fn) const {
    // Walk both runs as they sit.
    for (size_t i = 0; i < base_.size(); ++i) Emit(base_, i, fn);
    for (size_t i = 0; i < delta_.size(); ++i) Emit(delta_, i, fn);
  }

  /// Run order (the base unconditionally, the delta below its sorted
  /// prefix), the three columns parallel, the extras pool tiled exactly by
  /// the rows that point into it, every key equal to its point's code under
  /// `cuts` at `code_len` bits, and the rows' wire bytes (+ kRowOverheadBytes
  /// each) summing to `expect_bytes`.
  /// Returns OK trivially when MIND_VALIDATORS is off.
  Status ValidateInvariants(const CutTree& cuts, int code_len,
                            uint64_t expect_bytes) const;

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  // One run's parallel columns; entry i is keys[i], the dims coordinates at
  // points[i * dims], and meta[i].
  struct Run {
    scan::KeyColumn keys;
    scan::PointColumn points;
    std::vector<RowMeta> meta;
    size_t size() const { return keys.size(); }
    void clear() {
      keys.clear();
      points.clear();
      meta.clear();
    }
  };

  // A tail's (key, position) order and its rows gathered in key order. One
  // per thread, shared by every backend the thread runs: a warm sort
  // allocates nothing, and no store keeps a buffer of its own. A tail longer
  // than kScratchKeepRows frees it after its merge.
  struct TailScratch;
  static TailScratch& tail_scratch();

  void MaybeCompact();
  void EnsureDeltaSorted() const;
  // Merges the key-sorted `tail` into the key-sorted `run`, back to front:
  // each tail entry lands at its key's upper bound in the run and the run's
  // entries above it move up, so on equal keys the run's entries stay first.
  void MergeInto(Run* run, const Run& tail) const;
  // Emits the entries of run[begin, end) whose points lie inside `box`.
  template <typename Fn>
  void FilterRun(const Run& run, size_t begin, size_t end,
                 const scan::Box& box, Fn& fn) const {
    scan::FilterPoints(run.points.data(), dims_, begin, end, box.data(),
                       [&](size_t i) { Emit(run, i, fn); });
  }
  template <typename Fn>
  void Emit(const Run& run, size_t i, Fn& fn) const {
    const RowMeta& m = run.meta[i];
    const Value* extra = nullptr;
    size_t extra_len = 0;
    if (m.extra != kNoExtra) {
      extra_len = static_cast<size_t>(extras_[m.extra]);
      extra = extras_.data() + m.extra + 1;
    }
    fn(RowView{run.keys[i], run.points.data() + i * dims_, m.origin, m.seq,
               extra, extra_len});
  }

  size_t dims_;
  bool compaction_;
  size_t compact_min_delta_;
  size_t compact_ratio_;
  // Carried values of the rows that have some, in arrival order: each
  // row's count, then its values. RowMeta::extra points in; never moves.
  std::vector<Value> extras_;
  Run base_;           // always key-sorted
  mutable Run delta_;  // recent; key-sorted below delta_sorted_len_
  mutable size_t delta_sorted_len_ = 0;
  // storage.compaction.* counters; null without a registry.
  // mind-lint: allow(backend-purity): optional counter per DESIGN.md §13
  telemetry::Counter* compactions_ = nullptr;
  // mind-lint: allow(backend-purity): optional counter per DESIGN.md §13
  telemetry::Counter* compaction_rows_ = nullptr;
};

template <typename Fn>
uint64_t SortedRunsBackend::ScanCover(std::span<const KeyRange> ranges,
                                      const scan::Box& box, Fn&& fn) const {
  if (ranges.empty()) return 0;
  if (ranges.size() == 1 && ranges[0].lo == kFullKeyRange.lo &&
      ranges[0].hi == kFullKeyRange.hi) {
    // Every key qualifies: filter both runs as they sit — a scan that visits
    // everything gains nothing from restored key order.
    FilterRun(base_, 0, base_.size(), box, fn);
    FilterRun(delta_, 0, delta_.size(), box, fn);
    return size();
  }
  EnsureDeltaSorted();
  // Every key before a run's previous range end lies at or below that
  // range's hi, so below this range's lo: each probe resumes there.
  uint64_t examined = 0;
  size_t base_at = 0;
  size_t delta_at = 0;
  for (size_t r = 0; r < ranges.size(); ++r) {
    const KeyRange& kr = ranges[r];
    MIND_DCHECK(kr.lo <= kr.hi && (r == 0 || ranges[r - 1].hi < kr.lo));
    const auto [bb, be] = scan::RangeBoundsFrom(base_.keys.data(),
                                                base_.size(), base_at, kr.lo,
                                                kr.hi);
    FilterRun(base_, bb, be, box, fn);
    const auto [db, de] = scan::RangeBoundsFrom(delta_.keys.data(),
                                                delta_.size(), delta_at,
                                                kr.lo, kr.hi);
    FilterRun(delta_, db, de, box, fn);
    examined += (be - bb) + (de - db);
    base_at = be;
    delta_at = de;
  }
  return examined;
}

}  // namespace mind

#endif  // MIND_STORAGE_SORTED_RUNS_BACKEND_H_
