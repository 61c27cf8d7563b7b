#include "storage/index_backend.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "storage/bitmap_backend.h"
#include "storage/sorted_runs_backend.h"
#include "storage/tuple_store.h"
#include "util/logging.h"

namespace mind {

const char* IndexBackendKindName(IndexBackendKind kind) {
  switch (kind) {
    case IndexBackendKind::kSortedRuns:
      return "sorted";
    case IndexBackendKind::kBitmap:
      return "bitmap";
    case IndexBackendKind::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

IndexBackendKind DefaultIndexBackendKind() {
  // Read once and cached: the environment must not change mid-run, or two
  // nodes created at different times could disagree on the default.
  static const IndexBackendKind kind = [] {
    const char* env = std::getenv("MIND_BACKEND");
    if (env == nullptr || std::strcmp(env, "sorted") == 0) {
      return IndexBackendKind::kSortedRuns;
    }
    if (std::strcmp(env, "bitmap") == 0) return IndexBackendKind::kBitmap;
    if (std::strcmp(env, "adaptive") == 0) return IndexBackendKind::kAdaptive;
    MIND_LOG(Warning) << "MIND_BACKEND=" << env
                   << " is not sorted|bitmap|adaptive; using sorted";
    return IndexBackendKind::kSortedRuns;
  }();
  return kind;
}

namespace {

// Calibration constants for the DGFIndex-style workload cost model
// (docs/BACKENDS.md §"Adaptive cost model"; calibrated against
// bench_fig19_churn's store phases). Abstract units — only the ratio between
// the two totals matters, and the inputs are sim-deterministic, so the
// choice replays bit-identically.
constexpr double kSortedAppend = 1.0;       // delta push per insert
constexpr double kSortedMergePerRow = 0.5;  // x log2(N): amortized compaction
constexpr double kSortedProbe = 2.0;        // x log2(N): searches per range
constexpr double kSortedRowVisit = 1.0;     // contiguous run walk
constexpr double kBitmapSet = 2.5;          // fine + summary RLE append
constexpr double kBitmapBucketProbe = 6.0;  // directory walk per range
constexpr double kBitmapRowVisit = 1.5;     // decode + row-id indirection

double Log2Rows(double n) { return std::log2(n + 2.0); }

}  // namespace

BackendCostEstimate EstimateBackendCosts(const BackendWorkloadStats& stats) {
  const double n = static_cast<double>(stats.rows);
  const double r = static_cast<double>(stats.cover_ranges);
  const double e = static_cast<double>(stats.rows_examined);
  BackendCostEstimate c;
  c.sorted = n * (kSortedAppend + kSortedMergePerRow * Log2Rows(n)) +
             r * kSortedProbe * Log2Rows(n) + e * kSortedRowVisit;
  c.bitmap = n * kBitmapSet + r * kBitmapBucketProbe + e * kBitmapRowVisit;
  return c;
}

IndexBackendKind ChooseIndexBackend(const BackendWorkloadStats& stats) {
  if (stats.cold()) return IndexBackendKind::kSortedRuns;
  const BackendCostEstimate c = EstimateBackendCosts(stats);
  return c.bitmap < c.sorted ? IndexBackendKind::kBitmap
                             : IndexBackendKind::kSortedRuns;
}

std::unique_ptr<IndexBackend> MakeIndexBackend(
    IndexBackendKind kind, const TupleStoreOptions& options, size_t dims,
    telemetry::MetricsRegistry* metrics) {
  switch (kind) {
    case IndexBackendKind::kSortedRuns:
      return std::make_unique<SortedRunsBackend>(
          dims, options.compaction, options.compact_min_delta,
          options.compact_ratio, metrics);
    case IndexBackendKind::kBitmap:
      return std::make_unique<BitmapIndexBackend>(dims, metrics);
    case IndexBackendKind::kAdaptive:
      break;
  }
  MIND_CHECK(false);  // kAdaptive must resolve via ChooseIndexBackend first
  return nullptr;
}

}  // namespace mind
