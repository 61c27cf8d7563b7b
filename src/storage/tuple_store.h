// Per-node, per-(index, version) tuple storage with rectangle queries.
//
// Replaces the paper's MySQL/JDBC backend (DESIGN.md §2). Tuples are keyed by
// their data-space code (left-aligned in 64 bits) and held in two sorted runs,
// LSM-style (SortedRunsBackend, DESIGN.md §13). A rectangle query narrows to
// the merged key ranges of its covering codes (optionally through a shared
// CoverCache) and asks the runs for each range together with the query box;
// the runs filter on their inline point column and hand back only the
// matching rows, which the store appends to reply columns (QueryColumns) or
// turns into tuples (Query, QueryInto). The layout is
// digest-transparent: results, counts, timings and replay digests never
// depend on run boundaries or compaction timing (the store owns everything a
// digest or the simulation can see; the runs only own the physical layout).
#ifndef MIND_STORAGE_TUPLE_STORE_H_
#define MIND_STORAGE_TUPLE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "space/cut_tree.h"
#include "space/histogram.h"
#include "space/rect.h"
#include "storage/cover_cache.h"
#include "storage/sorted_runs_backend.h"
#include "storage/tuple.h"
#include "util/digest.h"

namespace mind {

struct TupleStoreOptions {
  /// Merge the delta run into the base run at the size-ratio trigger (and at
  /// version freeze). Off leaves every insert in the delta run. Layout-only:
  /// query results, counts and digests are identical either way.
  bool compaction = true;
  /// Compaction triggers once the delta holds at least this many rows...
  size_t compact_min_delta = 64;
  /// ...and delta * ratio exceeds the base size (amortizes the merge).
  size_t compact_ratio = 4;
  /// Query cover granularity: fine enough to prune, coarse enough to bound
  /// the number of ranges. Changing it moves scan_rows_examined, and with it
  /// the storage.scan.* figures every bench reports.
  int cover_len = 12;
  /// Cover() code budget; overflow takes the full-scan fallback path.
  size_t max_cover_codes = 4096;
};

/// Everything a store needs besides its cut tree: key precision, layout
/// policy, and the optional per-node sharables (metrics, cover cache).
/// IndexVersions stamps one config onto every store it opens.
struct TupleStoreConfig {
  int code_len = 32;
  TupleStoreOptions options;
  telemetry::MetricsRegistry* metrics = nullptr;  // storage.* counters
  CoverCache* cover_cache = nullptr;              // shared, owned by the node
};

class TupleStore {
 public:
  /// `cuts` is the embedding under which tuples are coded; `config.code_len`
  /// the stored key precision (also the maximum useful cover length).
  TupleStore(CutTreeRef cuts, TupleStoreConfig config);
  /// Default config with the given key precision (tests, standalone use).
  TupleStore(CutTreeRef cuts, int code_len);

  /// Adds a tuple (O(1) amortized; appends into the delta run).
  void Insert(Tuple tuple);

  /// Adds a tuple whose data-space code is already known (the insert message
  /// carries it end-to-end), skipping the CodeForPoint descent. `code` must
  /// equal `cuts()->CodeForPoint(tuple.point, n)` for some n >= code_len.
  void InsertCoded(Tuple tuple, const BitCode& code);

  /// Merges the delta run into the base run now (the version-freeze hook).
  /// Layout-only.
  void Compact() { runs_.Compact(); }

  size_t size() const { return runs_.size(); }
  /// Run sizes, for tests and capacity introspection.
  size_t base_size() const { return runs_.base_size(); }
  size_t delta_size() const { return runs_.delta_size(); }
  uint64_t approx_bytes() const { return approx_bytes_; }
  bool compaction_enabled() const { return opts_.compaction; }

  /// All tuples whose point lies inside `rect`.
  std::vector<Tuple> Query(const Rect& rect) const;

  /// Appends the matches to `*out` without an intermediate vector.
  void QueryInto(const Rect& rect, std::vector<Tuple>* out) const;

  /// Appends the matches to `*out` as columns, in QueryInto's order — the
  /// reply-assembly entry point: rows go from the run columns straight into
  /// the outgoing QueryReplyMsg, with no Tuple per row. `out->dims` must be
  /// the schema's.
  void QueryColumns(const Rect& rect, TupleColumns* out) const;

  /// Number of matching tuples without materializing them.
  size_t Count(const Rect& rect) const;

  /// Every stored tuple, in layout order.
  std::vector<Tuple> AllTuples() const;

  /// Histogram of the stored points at the given granularity (input to the
  /// daily balancing service). If `time_attr` >= 0, that coordinate is
  /// shifted forward by `time_shift` (clamped into the domain): cuts built
  /// from day d's data must be positioned where day d+1's timestamps will
  /// fall, or every new tuple lands on the high side of every time cut.
  Histogram BuildHistogram(int bins_per_dim, int time_attr = -1,
                           Value time_shift = 0) const;

  const CutTreeRef& cuts() const { return cuts_; }

  /// Cumulative scan-efficiency counters over every Query/Count so far:
  /// rows examined (rows whose key lies in a cover range — every row on
  /// cover fallback) vs. rows matched (rows
  /// inside the rectangle). Callers snapshot before/after a query and record
  /// the deltas (`storage.scan.*` histograms).
  uint64_t scan_rows_examined() const { return scan_rows_examined_; }
  uint64_t scan_rows_matched() const { return scan_rows_matched_; }

  /// Checks storage consistency: run order, the key and point columns
  /// mirroring the stored rows, every key equal to its point's code under
  /// the installed cut tree, the byte accounting matching the stored rows,
  /// and the cut tree itself well-formed. Returns OK trivially when
  /// MIND_VALIDATORS is off.
  Status ValidateInvariants() const;

  /// Folds the stored tuples into `out`, independent of row order (the
  /// digest must not see compaction timing).
  void DigestInto(Fnv64* out) const;

  /// What DigestInto folds for a store with no rows. Version chains hold
  /// never-written versions as null stores (IndexVersions lazy open); their
  /// digest must be byte-identical to a materialized-but-empty store's.
  static void DigestEmptyInto(Fnv64* out);

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  size_t dims() const { return static_cast<size_t>(cuts_->schema().dims()); }
  void InsertRow(uint64_t key, Tuple tuple);
  // Invokes fn on the RowView of every stored row inside rect; the runs
  // filter, so fn sees matches only.
  template <typename Fn>
  void Scan(const Rect& rect, Fn&& fn) const;
  // Materializes a matched row.
  Tuple ToTuple(const RowView& r) const;

  // mind-digest: skip(shared cut-tree handle; derived row keys are digested)
  CutTreeRef cuts_;
  // mind-digest: skip(fixed at open; implied by every digested row key)
  int code_len_;
  // mind-digest: skip(construction-time config, not evolving state)
  TupleStoreOptions opts_;
  SortedRunsBackend runs_;
  mutable uint64_t scan_rows_examined_ = 0;
  mutable uint64_t scan_rows_matched_ = 0;
  // Scan's query box (2 * dims words), rewritten in full by every Scan so
  // that a scan allocates nothing.
  // mind-digest: skip(per-scan scratch; no state survives a Scan)
  mutable scan::Box scan_box_;
  // mind-digest: skip(derived size estimate; recomputable from digested rows)
  uint64_t approx_bytes_ = 0;
  CoverCache* cover_cache_ = nullptr;  // never null after construction
  // Fallback when no shared cache is injected: monitoring queries re-probe
  // the same rectangles, and ComputeCoverRanges is ~40% of a warm Count, so
  // even a standalone store memoizes.
  // mind-digest: skip(pure-function cover memo; no observable state)
  std::unique_ptr<CoverCache> owned_cover_cache_;
  // storage.cover.* counters; null without a registry.
  telemetry::Counter* cover_fallbacks_ = nullptr;
};

}  // namespace mind

#endif  // MIND_STORAGE_TUPLE_STORE_H_
