// Per-node, per-(index, version) tuple storage with rectangle queries.
//
// Replaces the paper's MySQL/JDBC backend (DESIGN.md §2). Tuples are keyed by
// their data-space code (left-aligned in 64 bits) and held in one pluggable
// IndexBackend (DESIGN.md §13, docs/BACKENDS.md): two sorted runs LSM-style
// (kSortedRuns, the default), hierarchical compressed bitmaps over key
// buckets (kBitmap), or a per-store adaptive choice between the two from the
// previous version's workload stats (kAdaptive). A rectangle query narrows to
// the merged key ranges of its covering codes (optionally through a shared
// CoverCache) and asks the backend for each range together with the query
// box; the backend filters on its inline point column and hands back only
// the matching rows, which the facade turns into tuples. The backend choice
// is digest-transparent: results, counts, timings and replay digests are
// bit-identical across every backend (the facade owns everything a digest or
// the simulation can see; the backend only owns the physical layout).
#ifndef MIND_STORAGE_TUPLE_STORE_H_
#define MIND_STORAGE_TUPLE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "space/cut_tree.h"
#include "space/histogram.h"
#include "space/rect.h"
#include "storage/cover_cache.h"
#include "storage/index_backend.h"
#include "storage/tuple.h"
#include "util/digest.h"

namespace mind {

struct TupleStoreOptions {
  /// Merge the delta run into the base run at the size-ratio trigger (and at
  /// version freeze). Off leaves every insert in the delta run. Layout-only:
  /// query results, counts and digests are identical either way. Ignored by
  /// backends without a compaction concept (kBitmap).
  bool compaction = true;
  /// Compaction triggers once the delta holds at least this many rows...
  size_t compact_min_delta = 64;
  /// ...and delta * ratio exceeds the base size (amortizes the merge).
  size_t compact_ratio = 4;
  /// Query cover granularity: fine enough to prune, coarse enough to bound
  /// the number of ranges. The default matches the bitmap backend's fine
  /// bucket grid, keeping cover ranges bucket-aligned.
  int cover_len = 12;
  /// Cover() code budget; overflow takes the full-scan fallback path.
  size_t max_cover_codes = 4096;
  /// Physical layout behind the store (DESIGN.md §13). kAdaptive resolves to
  /// kSortedRuns or kBitmap at construction from
  /// TupleStoreConfig::adaptive_stats. Digest-transparent by contract.
  IndexBackendKind backend = IndexBackendKind::kSortedRuns;
};

/// Everything a store needs besides its cut tree: key precision, layout
/// policy, and the optional per-node sharables (metrics, cover cache).
/// IndexVersions stamps one config onto every store it opens.
struct TupleStoreConfig {
  int code_len = 32;
  TupleStoreOptions options;
  telemetry::MetricsRegistry* metrics = nullptr;  // storage.* counters
  CoverCache* cover_cache = nullptr;              // shared, owned by the node
  /// Workload evidence for options.backend == kAdaptive: IndexVersions copies
  /// the closing store's workload_stats() here before opening the next
  /// version, so each day's choice follows that index's observed mix.
  BackendWorkloadStats adaptive_stats;
};

class TupleStore {
 public:
  /// `cuts` is the embedding under which tuples are coded; `config.code_len`
  /// the stored key precision (also the maximum useful cover length).
  TupleStore(CutTreeRef cuts, TupleStoreConfig config);
  /// Default config with the given key precision (tests, standalone use).
  TupleStore(CutTreeRef cuts, int code_len);

  /// Adds a tuple (O(1) amortized; appends into the backend).
  void Insert(Tuple tuple);

  /// Adds a tuple whose data-space code is already known (the insert message
  /// carries it end-to-end), skipping the CodeForPoint descent. `code` must
  /// equal `cuts()->CodeForPoint(tuple.point, n)` for some n >= code_len.
  void InsertCoded(Tuple tuple, const BitCode& code);

  /// Backend maintenance now (the version-freeze hook; the sorted-runs
  /// backend merges its delta down, the bitmap backend has nothing to do).
  /// Layout-only.
  void Compact();

  size_t size() const { return backend_->size(); }
  /// Sorted-runs layout detail, kept for tests and capacity introspection:
  /// other backends report size()/0 (everything "base", nothing pending).
  size_t base_size() const;
  size_t delta_size() const;
  uint64_t approx_bytes() const { return approx_bytes_; }
  bool compaction_enabled() const { return opts_.compaction; }

  /// The resolved physical layout (never kAdaptive) and its stable name.
  IndexBackendKind backend_kind() const { return backend_->kind(); }
  const char* backend_name() const { return backend_->name(); }

  /// Ingest/query tallies since construction — handed to the next version's
  /// store as kAdaptive evidence. Sim-deterministic (telemetry-independent).
  BackendWorkloadStats workload_stats() const;

  /// All tuples whose point lies inside `rect`.
  std::vector<Tuple> Query(const Rect& rect) const;

  /// Appends the matches to `*out` without an intermediate vector — the
  /// zero-copy reply-assembly entry point (results land directly in the
  /// outgoing QueryReplyMsg).
  void QueryInto(const Rect& rect, std::vector<Tuple>* out) const;

  /// Number of matching tuples without materializing them.
  size_t Count(const Rect& rect) const;

  /// Every stored tuple, in backend layout order.
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
  /// cover fallback — as the backends report it) vs. rows matched (rows
  /// inside the rectangle). Callers snapshot before/after a query and record
  /// the deltas (`storage.scan.*` histograms).
  uint64_t scan_rows_examined() const { return scan_rows_examined_; }
  uint64_t scan_rows_matched() const { return scan_rows_matched_; }

  /// Checks storage consistency: the backend's structural invariants (run
  /// order for sorted runs; bucket membership, cardinalities and word shape
  /// for bitmaps), its key and point columns mirroring the stored rows,
  /// every key equal to its point's code under the installed cut tree, the
  /// byte accounting matching the stored rows, and the cut tree itself
  /// well-formed. Returns OK trivially when
  /// MIND_VALIDATORS is off.
  Status ValidateInvariants() const;

  /// Folds the stored tuples into `out`, independent of row order *and* of
  /// the physical layout (the digest must see neither compaction timing nor
  /// the backend choice).
  void DigestInto(Fnv64* out) const;

  /// What DigestInto folds for a store with no rows. Version chains hold
  /// never-written versions as null stores (IndexVersions lazy open); their
  /// digest must be byte-identical to a materialized-but-empty store's.
  static void DigestEmptyInto(Fnv64* out);

  /// Serializes the scan counters and every stored row for the MSN1 snapshot
  /// (DESIGN.md §14). The resolved backend kind is written by the caller
  /// (IndexVersions), which must construct the restored store with that kind
  /// before it can load. The physical base/delta layout is NOT preserved —
  /// backends are digest- and timing-transparent by contract, so restore may
  /// re-pack rows freely.
  void SaveSnapshotState(SnapWriter* w) const;
  /// Restores rows and counters written by SaveSnapshotState into this
  /// freshly constructed, empty store.
  Status LoadSnapshotState(SnapReader* r);

 private:
  friend class TupleStoreTestPeek;  // corruption injection in validator tests

  size_t dims() const { return static_cast<size_t>(cuts_->schema().dims()); }
  void InsertRow(uint64_t key, Tuple tuple);
  // Invokes fn on the RowView of every stored row inside rect; the backend
  // filters, so fn sees matches only.
  template <typename Fn>
  void Scan(const Rect& rect, Fn&& fn) const;
  // Invokes fn on the RowView of every stored row, layout order (digests,
  // histograms, snapshots).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const;
  // Materializes a matched row.
  Tuple ToTuple(const RowView& r) const;

  // mind-digest: skip(shared cut-tree handle; derived row keys are digested)
  CutTreeRef cuts_;
  // mind-digest: skip(fixed at open; implied by every digested row key)
  int code_len_;
  // mind-digest: skip(construction-time config, not evolving state)
  TupleStoreOptions opts_;
  std::unique_ptr<IndexBackend> backend_;
  mutable uint64_t scan_rows_examined_ = 0;
  mutable uint64_t scan_rows_matched_ = 0;
  mutable uint64_t scan_queries_ = 0;
  mutable uint64_t scan_cover_ranges_ = 0;
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
