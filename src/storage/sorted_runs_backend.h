// The store layout: two sorted runs, LSM-style (DESIGN.md §13).
//
// A TupleStore owns exactly one SortedRunsBackend. The store keeps
// everything a digest or the simulation can see — cover computation (and the
// shared CoverCache), scan-efficiency counters, digests, histograms, byte
// accounting — while the layout answers one question fast: "which stored
// rows have keys inside this range and points inside this box?".
//
// A large *base* run that is always in key order absorbs compactions; a small
// *delta* run absorbs inserts. A range scan binary-searches both runs.
// Compaction merges the delta into the base when it exceeds a size ratio of
// the base, and at daily version freeze (IndexVersions::AddVersion →
// TupleStore::Compact).
//
// A run is three parallel columns in key order: a cache-line-aligned key
// column (scan::KeyColumn), a dims-stride point column (scan::PointColumn)
// and the row id of each entry. The carried rows themselves (StoredRow:
// origin, seq, extra) sit in one arrival-order vector and never move. Range
// probes run the branch-free binary search over the key column, the
// rectangle filter sweeps the point column between the two bounds
// (storage/scan_kernels.h), and only matching rows are handed out, as
// RowViews over the columns.
//
// The delta keeps the length of its sorted prefix. Appends in key order grow
// the prefix; a scan after out-of-order appends sorts only the unsorted tail
// and merges it into the prefix from the back, so one late insert between
// two queries shifts the entries above it instead of re-sorting the run.
// Compact merges the delta's columns into the base's the same way. Equal
// keys keep arrival order throughout.
//
// The scan contract:
//
//   * ScanRange(kr, box, fn) calls fn on each row whose key lies in
//     [kr.lo, kr.hi] and whose point lies inside `box`, exactly once, and on
//     no other row. It returns the number of rows whose key lies in the
//     range, matched or not — "rows examined", a property of the stored keys
//     and the cover, not of run boundaries. Emit order is the layout's:
//     everything downstream (reply assembly, digests, histogram mass,
//     query-processing latency) is order-independent by construction.
//   * ScanAllRows visits every row exactly once (digests, histograms,
//     snapshots).
//   * Compact() is layout-only: results, counts and digests are identical
//     whether or not it ever runs.
#ifndef MIND_STORAGE_SORTED_RUNS_BACKEND_H_
#define MIND_STORAGE_SORTED_RUNS_BACKEND_H_

#include <cstdint>
#include <vector>

#include "space/cut_tree.h"
#include "storage/cover_cache.h"
#include "storage/scan_kernels.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace mind {

namespace telemetry {
class Counter;
class MetricsRegistry;
}  // namespace telemetry

/// The carried (non-indexed) part of a stored tuple. The key and the point
/// live in the run columns; keeping them out of the row keeps rows out of
/// every sort and merge, and keeps the filter off the heap.
struct StoredRow {
  std::vector<Value> extra;
  int origin = -1;
  uint64_t seq = 0;
};

/// One stored row as a scan sees it: the key, the row's `dims` coordinates
/// inside a run's point column, and the carried part. Valid only during the
/// call that receives it.
struct RowView {
  uint64_t key;
  const Value* point;
  const StoredRow& row;
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
  /// the point column) and its carried part. Keys arrive in any order.
  void Append(uint64_t key, const Value* point, StoredRow row);
  /// Merges the delta run into the base run now. Layout-only.
  void Compact();
  size_t size() const { return rows_.size(); }
  size_t base_size() const { return base_.size(); }
  size_t delta_size() const { return delta_.size(); }

  /// Calls fn(const RowView&) on exactly the rows whose key lies in
  /// [kr.lo, kr.hi] and whose point lies inside `box` (scan::PointInBox),
  /// each once. Returns the number of rows whose key lies in the range,
  /// matched or not ("rows examined").
  template <typename Fn>
  uint64_t ScanRange(const KeyRange& kr, const scan::Box& box, Fn&& fn) const;

  /// Calls fn(const RowView&) on every row exactly once.
  template <typename Fn>
  void ScanAllRows(Fn&& fn) const {
    // Walk both runs as they sit.
    for (size_t i = 0; i < base_.size(); ++i) Emit(base_, i, fn);
    for (size_t i = 0; i < delta_.size(); ++i) Emit(delta_, i, fn);
  }

  /// Run order (the base unconditionally, the delta below its sorted
  /// prefix), the three columns parallel and each row indexed once, every
  /// key equal to its point's code under `cuts` at `code_len` bits, and the
  /// rows' wire bytes (+ kRowOverheadBytes each) summing to `expect_bytes`.
  /// Returns OK trivially when MIND_VALIDATORS is off.
  Status ValidateInvariants(const CutTree& cuts, int code_len,
                            uint64_t expect_bytes) const;

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  // One run's parallel columns; entry i is keys[i], the dims coordinates at
  // points[i * dims], and rows_[ids[i]].
  struct Run {
    scan::KeyColumn keys;
    scan::PointColumn points;
    std::vector<uint32_t> ids;
    size_t size() const { return keys.size(); }
    void clear() {
      keys.clear();
      points.clear();
      ids.clear();
    }
  };

  void MaybeCompact();
  void EnsureDeltaSorted() const;
  // Merges the key-sorted `tail` into the key-sorted `run`, back to front;
  // on equal keys the run's entries stay first.
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
    fn(RowView{run.keys[i], run.points.data() + i * dims_, rows_[run.ids[i]]});
  }

  size_t dims_;
  bool compaction_;
  size_t compact_min_delta_;
  size_t compact_ratio_;
  std::vector<StoredRow> rows_;  // arrival order; runs refer to them by id
  Run base_;                     // always key-sorted
  mutable Run delta_;            // recent; key-sorted below delta_sorted_len_
  mutable size_t delta_sorted_len_ = 0;
  // storage.compaction.* counters; null without a registry.
  // mind-lint: allow(backend-purity): optional counter per DESIGN.md §13
  telemetry::Counter* compactions_ = nullptr;
  // mind-lint: allow(backend-purity): optional counter per DESIGN.md §13
  telemetry::Counter* compaction_rows_ = nullptr;
};

template <typename Fn>
uint64_t SortedRunsBackend::ScanRange(const KeyRange& kr,
                                      const scan::Box& box, Fn&& fn) const {
  if (kr.lo == kFullKeyRange.lo && kr.hi == kFullKeyRange.hi) {
    // Every key qualifies: filter both runs as they sit — a scan that visits
    // everything gains nothing from restored key order.
    FilterRun(base_, 0, base_.size(), box, fn);
    FilterRun(delta_, 0, delta_.size(), box, fn);
    return size();
  }
  EnsureDeltaSorted();
  auto scan_run = [&](const Run& run) -> uint64_t {
    const auto [b, e] =
        scan::RangeBounds(run.keys.data(), run.size(), kr.lo, kr.hi);
    FilterRun(run, b, e, box, fn);
    return e - b;
  };
  return scan_run(base_) + scan_run(delta_);
}

}  // namespace mind

#endif  // MIND_STORAGE_SORTED_RUNS_BACKEND_H_
