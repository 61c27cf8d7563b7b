// The per-store index-backend seam (DESIGN.md §13, docs/BACKENDS.md).
//
// A TupleStore owns exactly one IndexBackend: the physical layout holding its
// rows. The facade keeps everything layout-independent — cover computation
// (and the shared CoverCache), scan-efficiency counters, digests,
// histograms, byte accounting — while the backend answers one question fast:
// "which stored rows have keys inside this range and points inside this
// box?".
//
// A backend stores each row as three parts: its key and its indexed point,
// held in the backend's own key column and dims-stride point column
// (scan::KeyColumn / scan::PointColumn, in the backend's order), and the
// carried part (StoredRow: origin, seq, extra). Scans hand out RowViews over
// those columns; only rows that pass the filter ever become a Tuple.
//
// The contract every backend must honor (docs/BACKENDS.md spells out the
// obligations in full):
//
//   * ScanRange(kr, box) emits each row whose key lies in [kr.lo, kr.hi] and
//     whose point lies inside `box` exactly once, and no other row. It
//     returns the number of rows whose key lies in the range — "rows
//     examined" — which is a property of the stored keys, not of the layout,
//     so every backend returns the same count. Emit ORDER is
//     backend-private: everything downstream (reply assembly, digests,
//     histogram mass, query-processing latency) is order-independent by
//     construction, so a backend may emit key order, arrival order, or
//     bucket order.
//   * ScanAllRows visits every row exactly once (digests, histograms,
//     snapshots).
//   * Compact() is layout-only: results, counts and digests are identical
//     whether or not it ever runs.
//   * Digest transparency: because the facade folds digests from ScanAllRows
//     with an order-independent accumulator, swapping backends must leave
//     MindNet::StateDigest and every replay digest bit-identical. The
//     StorePathIntegrationTest.BackendsAreTransparent sweep enforces this.
#ifndef MIND_STORAGE_INDEX_BACKEND_H_
#define MIND_STORAGE_INDEX_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "space/cut_tree.h"
#include "storage/cover_cache.h"
#include "storage/scan_kernels.h"
#include "storage/tuple.h"

namespace mind {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

struct TupleStoreOptions;

/// Physical layouts a store can run on. kAdaptive is a *selection policy*,
/// not a layout: the store resolves it to one of the concrete kinds at
/// construction from the previous version's workload stats (DGFIndex-style
/// cost estimate, see ChooseIndexBackend).
enum class IndexBackendKind {
  kSortedRuns = 0,  // two sorted runs, LSM-style (the PR 4 layout; default)
  kBitmap = 1,      // hierarchical word-aligned RLE bitmaps over key buckets
  kAdaptive = 2,    // pick kSortedRuns or kBitmap per store from ingest stats
};

/// Short stable name ("sorted", "bitmap", "adaptive") — used in telemetry
/// counter names and bench export keys, so changing one is a schema change.
const char* IndexBackendKindName(IndexBackendKind kind);

/// The session-wide default: MIND_BACKEND=sorted|bitmap|adaptive when set
/// (read once, cached — the env must not change mid-run), else kSortedRuns.
/// Applied only to MindOptions::store_backend; a TupleStore constructed
/// directly always defaults to kSortedRuns regardless of the environment.
IndexBackendKind DefaultIndexBackendKind();

/// The carried (non-indexed) part of a stored tuple. The key and the point
/// live in the backend's columns; keeping them out of the row keeps rows
/// out of every sort and merge, and keeps the filter off the heap.
struct StoredRow {
  std::vector<Value> extra;
  int origin = -1;
  uint64_t seq = 0;
};

/// One stored row as a scan sees it: the key, the row's `dims` coordinates
/// inside the backend's point column, and the carried part. Valid only
/// during the RowConsumer call that receives it.
struct RowView {
  uint64_t key;
  const Value* point;
  const StoredRow& row;
};

/// The full key range: a cover-overflow fallback scan asks for it, and
/// backends may short-circuit it (every row's key lies inside).
inline constexpr KeyRange kFullKeyRange{0, UINT64_MAX};

/// Fixed per-row overhead charged to approx_bytes() on top of the tuple's
/// wire size (key + bookkeeping; backend-independent so byte accounting and
/// capacity gauges never depend on the layout choice).
inline constexpr uint64_t kRowOverheadBytes = 16;

/// What approx_bytes() charges for one stored row of a `dims`-coordinate
/// point: the tuple's wire size plus kRowOverheadBytes.
inline uint64_t StoredRowBytes(size_t dims, const StoredRow& row) {
  return Tuple::WireBytesFor(dims, row.extra.size()) + kRowOverheadBytes;
}

/// Ingest/query tallies a closing store hands to its successor at version
/// freeze — the evidence base for the adaptive backend choice. All fields are
/// sim-deterministic (no telemetry, no wall clock), so the choice replays
/// bit-identically.
struct BackendWorkloadStats {
  uint64_t rows = 0;           // tuples inserted
  uint64_t queries = 0;        // store scans served
  uint64_t cover_ranges = 0;   // merged key ranges across all scans
  uint64_t rows_examined = 0;  // rows visited by those scans
  uint64_t rows_matched = 0;   // rows that passed the rectangle filter
  bool cold() const { return rows == 0 && queries == 0; }
};

/// Estimated total workload cost (abstract units) of running the observed
/// workload on each concrete backend — the DGFIndex-style model documented
/// in docs/BACKENDS.md §"Adaptive cost model".
struct BackendCostEstimate {
  double sorted = 0;
  double bitmap = 0;
};
BackendCostEstimate EstimateBackendCosts(const BackendWorkloadStats& stats);

/// The concrete kind kAdaptive resolves to: the cheaper estimate, kSortedRuns
/// on cold stats or a tie. Pure and deterministic; never returns kAdaptive.
IndexBackendKind ChooseIndexBackend(const BackendWorkloadStats& stats);

/// Type-erased visitor for emitted rows. Implemented by a stack adapter in
/// the facade (RowConsumerAdapter) so the scan hot path pays one virtual
/// call per *matching* row — the filter runs inside the backend — and never
/// allocates.
class RowConsumer {
 public:
  virtual void Consume(const RowView& row) = 0;

 protected:
  ~RowConsumer() = default;
};

template <typename Fn>
class RowConsumerAdapter final : public RowConsumer {
 public:
  explicit RowConsumerAdapter(Fn& fn) : fn_(fn) {}
  void Consume(const RowView& row) override { fn_(row); }

 private:
  Fn& fn_;
};

/// One physical layout. See the file comment for the contract; see
/// docs/BACKENDS.md for the checklist a third backend must satisfy.
class IndexBackend {
 public:
  virtual ~IndexBackend() = default;

  virtual IndexBackendKind kind() const = 0;
  const char* name() const { return IndexBackendKindName(kind()); }

  /// Adds one row: its key, its `dims` coordinates at `point` (copied into
  /// the point column) and its carried part. Keys arrive in any order;
  /// amortized O(1) is the target.
  virtual void Append(uint64_t key, const Value* point, StoredRow row) = 0;

  /// Version-freeze / maintenance hook. Layout-only by contract.
  virtual void Compact() = 0;

  virtual size_t size() const = 0;

  /// Emits exactly the rows whose key lies in [kr.lo, kr.hi] and whose point
  /// lies inside `box` (scan::PointInBox), each once. Returns the number of
  /// rows whose key lies in the range, matched or not ("rows examined").
  virtual uint64_t ScanRange(const KeyRange& kr, const scan::Box& box,
                             RowConsumer& out) const = 0;

  /// Visits every row exactly once.
  virtual void ScanAllRows(RowConsumer& out) const = 0;

  /// Backend-structure invariants (run order, bitmap shape, bucket
  /// membership), plus the shared obligations: the key and point columns
  /// hold one entry (one dims-stride point) per stored row, every key
  /// equals its point's code under `cuts` at `code_len` bits, and the rows'
  /// wire bytes (+ kRowOverheadBytes each) sum to `expect_bytes`. Returns OK
  /// trivially when MIND_VALIDATORS is off.
  virtual Status ValidateInvariants(const CutTree& cuts, int code_len,
                                    uint64_t expect_bytes) const = 0;
};

/// Constructs a concrete backend for points of `dims` coordinates. `kind`
/// must not be kAdaptive (resolve it first with ChooseIndexBackend).
/// `metrics` may be null; backends register their storage.* counters against
/// it otherwise.
std::unique_ptr<IndexBackend> MakeIndexBackend(
    IndexBackendKind kind, const TupleStoreOptions& options, size_t dims,
    telemetry::MetricsRegistry* metrics);

}  // namespace mind

#endif  // MIND_STORAGE_INDEX_BACKEND_H_
