#include "storage/sorted_runs_backend.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/validate.h"

namespace mind {

// mind-lint: allow(backend-purity): optional counter wiring per docs/BACKENDS.md
SortedRunsBackend::SortedRunsBackend(bool compaction, size_t compact_min_delta,
                                     size_t compact_ratio,
                                     telemetry::MetricsRegistry* metrics)
    : compaction_(compaction),
      compact_min_delta_(compact_min_delta),
      compact_ratio_(compact_ratio) {
  MIND_CHECK(compact_ratio_ > 0);
  if (metrics != nullptr) {
    compactions_ = &metrics->counter("storage.compaction.count");
    compaction_rows_ = &metrics->counter("storage.compaction.rows");
  }
}

void SortedRunsBackend::Append(StoredRow row) {
  // An append that keeps key order keeps the delta sorted (time-correlated
  // inserts often do); only a true inversion forces the lazy re-sort.
  if (!delta_.empty() && delta_.back().key > row.key) delta_sorted_ = false;
  delta_keys_.push_back(row.key);
  delta_.push_back(std::move(row));
  MaybeCompact();
}

void SortedRunsBackend::RebuildKeys(const std::vector<StoredRow>& run,
                                    scan::KeyColumn* keys) {
  keys->resize(run.size());
  for (size_t i = 0; i < run.size(); ++i) (*keys)[i] = run[i].key;
}

void SortedRunsBackend::MaybeCompact() {
  if (!compaction_) return;
  if (delta_.size() < compact_min_delta_) return;
  if (delta_.size() * compact_ratio_ <= base_.size()) return;
  Compact();
}

void SortedRunsBackend::Compact() {
  if (delta_.empty()) return;
  EnsureDeltaSorted();
  const size_t merged = delta_.size();
  const size_t mid = base_.size();
  base_.insert(base_.end(), std::make_move_iterator(delta_.begin()),
               std::make_move_iterator(delta_.end()));
  std::inplace_merge(
      base_.begin(), base_.begin() + static_cast<long>(mid), base_.end(),
      [](const StoredRow& a, const StoredRow& b) { return a.key < b.key; });
  delta_.clear();
  delta_keys_.clear();
  delta_sorted_ = true;
  RebuildKeys(base_, &base_keys_);
  if (compactions_ != nullptr) compactions_->Inc();
  if (compaction_rows_ != nullptr) compaction_rows_->Inc(merged);
}

void SortedRunsBackend::EnsureDeltaSorted() const {
  if (delta_sorted_) return;
  std::sort(delta_.begin(), delta_.end(),
            [](const StoredRow& a, const StoredRow& b) { return a.key < b.key; });
  delta_sorted_ = true;
  RebuildKeys(delta_, &delta_keys_);
}

void SortedRunsBackend::ScanRun(const std::vector<StoredRow>& run,
                                const scan::KeyColumn& keys, const KeyRange& kr,
                                RowConsumer& out) const {
  const auto [begin, end] =
      scan::RangeBounds(keys.data(), keys.size(), kr.lo, kr.hi);
  scan::SweepRows(run, begin, end,
                  [&out](const StoredRow& r) { out.Consume(r); });
}

void SortedRunsBackend::ScanRange(const KeyRange& kr, RowConsumer& out) const {
  EnsureDeltaSorted();
  ScanRun(base_, base_keys_, kr, out);
  ScanRun(delta_, delta_keys_, kr, out);
}

void SortedRunsBackend::ScanAllRows(RowConsumer& out) const {
  // Walk both runs as they sit — a scan that visits everything gains nothing
  // from restored key order.
  for (const StoredRow& r : base_) out.Consume(r);
  for (const StoredRow& r : delta_) out.Consume(r);
}

Status SortedRunsBackend::ValidateInvariants(const CutTree& cuts, int code_len,
                                             uint64_t expect_bytes) const {
#if MIND_VALIDATORS_ENABLED
  uint64_t bytes = 0;
  auto check_run = [&](const std::vector<StoredRow>& run, bool claims_sorted,
                       const char* name) -> Status {
    for (size_t i = 0; i < run.size(); ++i) {
      const StoredRow& r = run[i];
      MIND_VALIDATE(!claims_sorted || i == 0 || run[i - 1].key <= r.key,
                    "tuple-store: " << name << " run claims sorted but row " << i
                                    << " (key " << r.key << ") is below row "
                                    << i - 1 << " (key " << run[i - 1].key
                                    << ")");
      const BitCode code = cuts.CodeForPoint(r.tuple.point, code_len);
      const uint64_t expect =
          code.empty() ? 0 : code.bits() << (64 - code.length());
      MIND_VALIDATE(r.key == expect,
                    "tuple-store: " << name << " row " << i << " (origin "
                                    << r.tuple.origin << " seq " << r.tuple.seq
                                    << ") keyed " << r.key
                                    << " but its point codes to " << expect
                                    << " under the installed cut tree");
      bytes += r.tuple.WireBytes() + kRowOverheadBytes;
    }
    return Status::OK();
  };
  // The base run's order is unconditional; the delta's only when claimed.
  MIND_RETURN_NOT_OK(check_run(base_, true, "base"));
  MIND_RETURN_NOT_OK(check_run(delta_, delta_sorted_, "delta"));
  // The derived key columns must mirror their runs element-for-element:
  // probes search the column but emits read the rows, so drift would
  // silently return wrong rows.
  auto check_keys = [](const std::vector<StoredRow>& run,
                       const scan::KeyColumn& keys,
                       const char* name) -> Status {
    MIND_VALIDATE(keys.size() == run.size(),
                  "tuple-store: " << name << " key column holds " << keys.size()
                                  << " keys for " << run.size() << " rows");
    for (size_t i = 0; i < run.size(); ++i) {
      MIND_VALIDATE(keys[i] == run[i].key,
                    "tuple-store: " << name << " key column entry " << i
                                    << " is " << keys[i]
                                    << " but the row is keyed " << run[i].key);
    }
    return Status::OK();
  };
  MIND_RETURN_NOT_OK(check_keys(base_, base_keys_, "base"));
  MIND_RETURN_NOT_OK(check_keys(delta_, delta_keys_, "delta"));
  MIND_VALIDATE(bytes == expect_bytes,
                "tuple-store: approx_bytes_ is "
                    << expect_bytes << " but base+delta rows sum to " << bytes);
#else
  (void)cuts;
  (void)code_len;
  (void)expect_bytes;
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

}  // namespace mind
