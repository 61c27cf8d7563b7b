#include "storage/sorted_runs_backend.h"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/validate.h"

namespace mind {

// mind-lint: allow(backend-purity): optional counter wiring per docs/BACKENDS.md
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

void SortedRunsBackend::Append(uint64_t key, const Value* point,
                               StoredRow row) {
  MIND_CHECK(rows_.size() < UINT32_MAX);
  // An append that keeps key order extends the sorted prefix (time-correlated
  // inserts often do); anything after the first inversion waits in the tail.
  if (delta_sorted_len_ == delta_.size() &&
      (delta_.size() == 0 || delta_.keys.back() <= key)) {
    ++delta_sorted_len_;
  }
  delta_.keys.push_back(key);
  delta_.points.insert(delta_.points.end(), point, point + dims_);
  delta_.ids.push_back(static_cast<uint32_t>(rows_.size()));
  rows_.push_back(std::move(row));
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
  run->ids.resize(i + j);
  Value* pts = run->points.data();
  // Fill from the back: each step places the larger of the two last
  // unplaced entries. Once the tail is exhausted the rest of the run is
  // already in place, so a short tail costs only the entries above it.
  for (size_t w = i + j; j > 0;) {
    --w;
    if (i > 0 && run->keys[i - 1] > tail.keys[j - 1]) {
      --i;
      run->keys[w] = run->keys[i];
      run->ids[w] = run->ids[i];
      std::copy_n(pts + i * d, d, pts + w * d);
    } else {
      --j;
      run->keys[w] = tail.keys[j];
      run->ids[w] = tail.ids[j];
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
  tail.ids.reserve(n - s);
  for (const auto& [key, i] : order) {
    tail.keys.push_back(key);
    const Value* p = delta_.points.data() + i * dims_;
    tail.points.insert(tail.points.end(), p, p + dims_);
    tail.ids.push_back(delta_.ids[i]);
  }
  delta_.keys.resize(s);
  delta_.points.resize(s * dims_);
  delta_.ids.resize(s);
  MergeInto(&delta_, tail);
  delta_sorted_len_ = n;
}

void SortedRunsBackend::Emit(const Run& run, size_t i,
                             RowConsumer& out) const {
  out.Consume(RowView{run.keys[i], run.points.data() + i * dims_,
                      rows_[run.ids[i]]});
}

void SortedRunsBackend::FilterRun(const Run& run, size_t begin, size_t end,
                                  const scan::Box& box,
                                  RowConsumer& out) const {
  scan::FilterPoints(run.points.data(), dims_, begin, end, box.data(),
                     [&](size_t i) { Emit(run, i, out); });
}

uint64_t SortedRunsBackend::ScanRange(const KeyRange& kr, const scan::Box& box,
                                      RowConsumer& out) const {
  if (kr.lo == kFullKeyRange.lo && kr.hi == kFullKeyRange.hi) {
    // Every key qualifies: filter both runs as they sit — a scan that visits
    // everything gains nothing from restored key order.
    FilterRun(base_, 0, base_.size(), box, out);
    FilterRun(delta_, 0, delta_.size(), box, out);
    return size();
  }
  EnsureDeltaSorted();
  auto scan_run = [&](const Run& run) -> uint64_t {
    const auto [b, e] =
        scan::RangeBounds(run.keys.data(), run.size(), kr.lo, kr.hi);
    FilterRun(run, b, e, box, out);
    return e - b;
  };
  return scan_run(base_) + scan_run(delta_);
}

void SortedRunsBackend::ScanAllRows(RowConsumer& out) const {
  // Walk both runs as they sit.
  for (size_t i = 0; i < base_.size(); ++i) Emit(base_, i, out);
  for (size_t i = 0; i < delta_.size(); ++i) Emit(delta_, i, out);
}

Status SortedRunsBackend::ValidateInvariants(const CutTree& cuts, int code_len,
                                             uint64_t expect_bytes) const {
#if MIND_VALIDATORS_ENABLED
  uint64_t bytes = 0;
  std::vector<uint8_t> seen(rows_.size(), 0);
  Point point(dims_);
  auto check_run = [&](const Run& run, size_t sorted_len,
                       const char* name) -> Status {
    // The columns are parallel: probes search the keys, the filter reads the
    // points and emits fetch rows by id, so any drift returns wrong rows.
    MIND_VALIDATE(run.keys.size() == run.ids.size(),
                  "tuple-store: " << name << " key column holds "
                                  << run.keys.size() << " keys for "
                                  << run.ids.size() << " rows");
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
      const uint32_t id = run.ids[i];
      MIND_VALIDATE(id < rows_.size() && seen[id] == 0,
                    "tuple-store: " << name << " entry " << i << " names row id "
                                    << id << ", which is "
                                    << (id < rows_.size() ? "already indexed"
                                                          : "beyond the rows"));
      seen[id] = 1;
      const StoredRow& r = rows_[id];
      std::copy_n(run.points.data() + i * dims_, dims_, point.begin());
      const uint64_t expect = CodeKey(cuts.CodeForPoint(point, code_len));
      MIND_VALIDATE(run.keys[i] == expect,
                    "tuple-store: " << name << " key column entry " << i
                                    << " (origin " << r.origin << " seq "
                                    << r.seq << ") is " << run.keys[i]
                                    << " but its point codes to " << expect
                                    << " under the installed cut tree");
      bytes += StoredRowBytes(dims_, r);
    }
    return Status::OK();
  };
  // The base run's order is unconditional; the delta's only below its
  // sorted prefix.
  MIND_RETURN_NOT_OK(check_run(base_, base_.size(), "base"));
  MIND_RETURN_NOT_OK(check_run(delta_, delta_sorted_len_, "delta"));
  MIND_VALIDATE(base_.size() + delta_.size() == rows_.size(),
                "tuple-store: base and delta runs index "
                    << base_.size() + delta_.size() << " entries for "
                    << rows_.size() << " stored rows");
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
