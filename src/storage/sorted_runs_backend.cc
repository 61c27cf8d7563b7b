#include "storage/sorted_runs_backend.h"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/validate.h"

namespace mind {

// mind-lint: allow(backend-purity): optional counter wiring per DESIGN.md §13
SortedRunsBackend::SortedRunsBackend(size_t dims, bool compaction,
                                     size_t compact_min_delta,
                                     size_t compact_ratio,
                                     telemetry::MetricsRegistry* metrics)
    : dims_(dims),
      compaction_(compaction),
      compact_min_delta_(compact_min_delta),
      compact_ratio_(compact_ratio) {
  MIND_CHECK(compact_ratio_ > 0);
  if (metrics != nullptr) {
    compactions_ = &metrics->counter("storage.compaction.count");
    compaction_rows_ = &metrics->counter("storage.compaction.rows");
  }
}

void SortedRunsBackend::Append(uint64_t key, const Value* point, int origin,
                               uint64_t seq, const Value* extra,
                               size_t extra_len) {
  uint32_t extra_at = kNoExtra;
  if (extra_len > 0) {
    MIND_CHECK(extras_.size() + 1 + extra_len < kNoExtra);
    extra_at = static_cast<uint32_t>(extras_.size());
    extras_.push_back(static_cast<Value>(extra_len));
    extras_.insert(extras_.end(), extra, extra + extra_len);
  }
  // An append that keeps key order extends the sorted prefix (time-correlated
  // inserts often do); anything after the first inversion waits in the tail.
  if (delta_sorted_len_ == delta_.size() &&
      (delta_.size() == 0 || delta_.keys.back() <= key)) {
    ++delta_sorted_len_;
  }
  delta_.keys.push_back(key);
  delta_.points.insert(delta_.points.end(), point, point + dims_);
  delta_.meta.push_back(RowMeta{seq, origin, extra_at});
  MaybeCompact();
}

void SortedRunsBackend::MaybeCompact() {
  if (!compaction_) return;
  if (delta_.size() < compact_min_delta_) return;
  if (delta_.size() * compact_ratio_ <= base_.size()) return;
  Compact();
}

void SortedRunsBackend::Compact() {
  if (delta_.size() == 0) return;
  EnsureDeltaSorted();
  const size_t merged = delta_.size();
  MergeInto(&base_, delta_);
  delta_.clear();
  delta_sorted_len_ = 0;
  if (compactions_ != nullptr) compactions_->Inc();
  if (compaction_rows_ != nullptr) compaction_rows_->Inc(merged);
}

void SortedRunsBackend::MergeInto(Run* run, const Run& tail) const {
  const size_t d = dims_;
  size_t i = run->size();
  size_t j = tail.size();
  run->keys.resize(i + j);
  run->points.resize((i + j) * d);
  run->meta.resize(i + j);
  Value* pts = run->points.data();
  // Fill from the back: each step places the larger of the two last
  // unplaced entries. Once the tail is exhausted the rest of the run is
  // already in place, so a short tail costs only the entries above it.
  for (size_t w = i + j; j > 0;) {
    --w;
    if (i > 0 && run->keys[i - 1] > tail.keys[j - 1]) {
      --i;
      run->keys[w] = run->keys[i];
      run->meta[w] = run->meta[i];
      std::copy_n(pts + i * d, d, pts + w * d);
    } else {
      --j;
      run->keys[w] = tail.keys[j];
      run->meta[w] = tail.meta[j];
      std::copy_n(tail.points.data() + j * d, d, pts + w * d);
    }
  }
}

void SortedRunsBackend::EnsureDeltaSorted() const {
  const size_t n = delta_.size();
  const size_t s = delta_sorted_len_;
  if (s == n) return;
  // Order the tail by key, position breaking ties so equal keys keep arrival
  // order, then gather it into key order and merge it into the prefix.
  std::vector<std::pair<uint64_t, size_t>> order;
  order.reserve(n - s);
  for (size_t i = s; i < n; ++i) order.emplace_back(delta_.keys[i], i);
  std::sort(order.begin(), order.end());
  Run tail;
  tail.keys.reserve(n - s);
  tail.points.reserve((n - s) * dims_);
  tail.meta.reserve(n - s);
  for (const auto& [key, i] : order) {
    tail.keys.push_back(key);
    const Value* p = delta_.points.data() + i * dims_;
    tail.points.insert(tail.points.end(), p, p + dims_);
    tail.meta.push_back(delta_.meta[i]);
  }
  delta_.keys.resize(s);
  delta_.points.resize(s * dims_);
  delta_.meta.resize(s);
  MergeInto(&delta_, tail);
  delta_sorted_len_ = n;
}

Status SortedRunsBackend::ValidateInvariants(const CutTree& cuts, int code_len,
                                             uint64_t expect_bytes) const {
#if MIND_VALIDATORS_ENABLED
  uint64_t bytes = 0;
  // Extras offset of every row with carried values, to check below that they
  // tile the pool: a shared or stray offset returns wrong values.
  std::vector<uint32_t> extra_at;
  Point point(dims_);
  auto check_run = [&](const Run& run, size_t sorted_len,
                       const char* name) -> Status {
    // The columns are parallel: probes search the keys, the filter reads the
    // points and emits read the meta entry at the same index, so any drift
    // returns wrong rows.
    MIND_VALIDATE(run.keys.size() == run.meta.size(),
                  "tuple-store: " << name << " key column holds "
                                  << run.keys.size() << " keys for "
                                  << run.meta.size() << " meta entries");
    MIND_VALIDATE(run.points.size() == run.keys.size() * dims_,
                  "tuple-store: " << name << " point column holds "
                                  << run.points.size() << " values for "
                                  << run.keys.size() << " keys of " << dims_
                                  << " dims");
    MIND_VALIDATE(sorted_len <= run.size(),
                  "tuple-store: " << name << " sorted prefix " << sorted_len
                                  << " exceeds its " << run.size()
                                  << " entries");
    for (size_t i = 1; i < sorted_len; ++i) {
      MIND_VALIDATE(run.keys[i - 1] <= run.keys[i],
                    "tuple-store: " << name << " run claims sorted but entry "
                                    << i << " (key " << run.keys[i]
                                    << ") is below entry " << i - 1 << " (key "
                                    << run.keys[i - 1] << ")");
    }
    for (size_t i = 0; i < run.size(); ++i) {
      const RowMeta& m = run.meta[i];
      size_t extra_len = 0;
      if (m.extra != kNoExtra) {
        MIND_VALIDATE(m.extra < extras_.size() &&
                          extras_[m.extra] > 0 &&
                          extras_[m.extra] < extras_.size() - m.extra,
                      "tuple-store: " << name << " entry " << i
                                      << " names extras offset " << m.extra
                                      << ", which holds no carried values of "
                                         "the pool's "
                                      << extras_.size());
        extra_len = static_cast<size_t>(extras_[m.extra]);
        extra_at.push_back(m.extra);
      }
      std::copy_n(run.points.data() + i * dims_, dims_, point.begin());
      const uint64_t expect = CodeKey(cuts.CodeForPoint(point, code_len));
      MIND_VALIDATE(run.keys[i] == expect,
                    "tuple-store: " << name << " key column entry " << i
                                    << " (origin " << m.origin << " seq "
                                    << m.seq << ") is " << run.keys[i]
                                    << " but its point codes to " << expect
                                    << " under the installed cut tree");
      bytes += Tuple::WireBytesFor(dims_, extra_len) + kRowOverheadBytes;
    }
    return Status::OK();
  };
  // The base run's order is unconditional; the delta's only below its
  // sorted prefix.
  MIND_RETURN_NOT_OK(check_run(base_, base_.size(), "base"));
  MIND_RETURN_NOT_OK(check_run(delta_, delta_sorted_len_, "delta"));
  // Each row's (count, values) segment starts where the previous one ends,
  // and the last one ends the pool.
  std::sort(extra_at.begin(), extra_at.end());
  uint64_t next = 0;
  for (const uint32_t at : extra_at) {
    MIND_VALIDATE(at == next, "tuple-store: extras offset "
                                  << at << " is "
                                  << (at < next ? "already claimed"
                                                : "past a gap")
                                  << " (expected " << next << ")");
    next = at + 1 + extras_[at];
  }
  MIND_VALIDATE(next == extras_.size(),
                "tuple-store: rows claim " << next << " of the extras pool's "
                                           << extras_.size() << " values");
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
