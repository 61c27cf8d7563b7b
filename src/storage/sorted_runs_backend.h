// The two-sorted-run (LSM-style) backend — the PR 4 layout, now behind the
// IndexBackend seam.
//
// A large *base* run that is always in key order absorbs compactions; a small
// *delta* run absorbs inserts. A range scan binary-searches both runs.
// Compaction merges the delta into the base when it exceeds a size ratio of
// the base, and at daily version freeze (IndexVersions::AddVersion →
// TupleStore::Compact).
//
// A run is three parallel columns in key order: a cache-line-aligned key
// column (scan::KeyColumn), a dims-stride point column (scan::PointColumn)
// and the row id of each entry. The carried rows themselves sit in one
// arrival-order vector and never move. Range probes run the branch-free
// binary search over the key column, the rectangle filter sweeps the point
// column between the two bounds (storage/scan_kernels.h), and only matching
// rows are fetched by id.
//
// The delta keeps the length of its sorted prefix. Appends in key order grow
// the prefix; a scan after out-of-order appends sorts only the unsorted tail
// and merges it into the prefix from the back, so one late insert between
// two queries shifts the entries above it instead of re-sorting the run.
// Compact merges the delta's columns into the base's the same way. Equal
// keys keep arrival order throughout.
#ifndef MIND_STORAGE_SORTED_RUNS_BACKEND_H_
#define MIND_STORAGE_SORTED_RUNS_BACKEND_H_

#include <cstdint>
#include <vector>

#include "storage/index_backend.h"
#include "storage/scan_kernels.h"

namespace mind {

namespace telemetry {
class Counter;
}  // namespace telemetry

class SortedRunsBackend final : public IndexBackend {
 public:
  /// `compaction` gates the automatic ratio trigger; an explicit Compact()
  /// call always merges (the facade's compaction_enabled knob decides who
  /// calls it at version freeze). Layout-only either way.
  // mind-lint: allow(backend-purity): optional counters per docs/BACKENDS.md
  SortedRunsBackend(size_t dims, bool compaction, size_t compact_min_delta,
                    size_t compact_ratio, telemetry::MetricsRegistry* metrics);

  IndexBackendKind kind() const override {
    return IndexBackendKind::kSortedRuns;
  }
  void Append(uint64_t key, const Value* point, StoredRow row) override;
  void Compact() override;
  size_t size() const override { return rows_.size(); }
  uint64_t ScanRange(const KeyRange& kr, const scan::Box& box,
                     RowConsumer& out) const override;
  void ScanAllRows(RowConsumer& out) const override;
  Status ValidateInvariants(const CutTree& cuts, int code_len,
                            uint64_t expect_bytes) const override;

  size_t base_size() const { return base_.size(); }
  size_t delta_size() const { return delta_.size(); }

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
  void FilterRun(const Run& run, size_t begin, size_t end,
                 const scan::Box& box, RowConsumer& out) const;
  void Emit(const Run& run, size_t i, RowConsumer& out) const;

  size_t dims_;
  bool compaction_;
  size_t compact_min_delta_;
  size_t compact_ratio_;
  std::vector<StoredRow> rows_;  // arrival order; runs refer to them by id
  Run base_;                     // always key-sorted
  mutable Run delta_;            // recent; key-sorted below delta_sorted_len_
  mutable size_t delta_sorted_len_ = 0;
  // storage.compaction.* counters; null without a registry.
  // mind-lint: allow(backend-purity): optional counter per docs/BACKENDS.md
  telemetry::Counter* compactions_ = nullptr;
  // mind-lint: allow(backend-purity): optional counter per docs/BACKENDS.md
  telemetry::Counter* compaction_rows_ = nullptr;
};

}  // namespace mind

#endif  // MIND_STORAGE_SORTED_RUNS_BACKEND_H_
