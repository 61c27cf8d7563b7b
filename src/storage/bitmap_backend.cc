#include "storage/bitmap_backend.h"

#include <algorithm>
#include <map>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/validate.h"

namespace mind {

void RleBitmap::Set(uint64_t pos) {
  MIND_CHECK(pos >= next_pos_);
  const uint64_t chunk = pos / 63;
  const uint64_t cur = chunk_base_ / 63;
  if (chunk != cur) {
    FlushActive();
    if (chunk > cur + 1) AppendFill(false, chunk - cur - 1);
    chunk_base_ = chunk * 63;
  }
  active_ |= uint64_t{1} << (pos - chunk_base_);
  ++count_;
  next_pos_ = pos + 1;
}

void RleBitmap::FlushActive() {
  if (active_ == 0) {
    AppendFill(false, 1);
  } else if (active_ == kLiteralMask) {
    AppendFill(true, 1);
  } else {
    words_.push_back(active_);
  }
  active_ = 0;
}

void RleBitmap::AppendFill(bool value, uint64_t chunks) {
  const uint64_t vbit = value ? kFillValueBit : 0;
  while (chunks > 0) {
    if (!words_.empty() && (words_.back() & kFillFlag) != 0 &&
        (words_.back() & kFillValueBit) == vbit &&
        (words_.back() & kRunMask) < kRunMask) {
      const uint64_t have = words_.back() & kRunMask;
      const uint64_t add = std::min(chunks, kRunMask - have);
      words_.back() = kFillFlag | vbit | (have + add);
      chunks -= add;
      continue;
    }
    const uint64_t add = std::min(chunks, kRunMask);
    words_.push_back(kFillFlag | vbit | add);
    chunks -= add;
  }
}

Status RleBitmap::Validate(const char* what, uint32_t bucket) const {
#if MIND_VALIDATORS_ENABLED
  uint64_t chunks = 0;
  uint64_t decoded = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    const uint64_t w = words_[i];
    if ((w & kFillFlag) != 0) {
      const uint64_t run = w & kRunMask;
      MIND_VALIDATE(run > 0, "bitmap-index: " << what << " " << bucket
                                              << " bitmap word " << i
                                              << " is a zero-length fill");
      chunks += run;
      if ((w & kFillValueBit) != 0) decoded += run * 63;
    } else {
      ++chunks;
      decoded += static_cast<uint64_t>(__builtin_popcountll(w));
    }
  }
  MIND_VALIDATE(chunks * 63 == chunk_base_,
                "bitmap-index: " << what << " " << bucket
                                 << " bitmap encodes " << chunks * 63
                                 << " bits but its active chunk starts at "
                                 << chunk_base_);
  decoded += static_cast<uint64_t>(__builtin_popcountll(active_));
  MIND_VALIDATE((active_ & ~kLiteralMask) == 0,
                "bitmap-index: " << what << " " << bucket
                                 << " active chunk has bits beyond 63");
  MIND_VALIDATE(decoded == count_,
                "bitmap-index: " << what << " " << bucket << " decodes to "
                                 << decoded
                                 << " set bits but its cardinality counter is "
                                 << count_);
#else
  (void)what;
  (void)bucket;
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

// mind-lint: allow(backend-purity): optional counter wiring per docs/BACKENDS.md
BitmapIndexBackend::BitmapIndexBackend(size_t dims,
                                       telemetry::MetricsRegistry* metrics)
    : dims_(dims) {
  if (metrics != nullptr) {
    set_bits_ = &metrics->counter("storage.backend.bitmap.set_bits");
  }
}

void BitmapIndexBackend::Append(uint64_t key, const Value* point,
                                StoredRow row) {
  const uint64_t id = rows_.size();
  fine_.Get(FineBucket(key)).Set(id);
  summary_.Get(SummaryBucket(key)).Set(id);
  keys_.push_back(key);
  points_.insert(points_.end(), point, point + dims_);
  rows_.push_back(std::move(row));
  if (set_bits_ != nullptr) set_bits_->Inc(2);
}

void BitmapIndexBackend::Emit(uint64_t id, RowConsumer& out) const {
  out.Consume(RowView{keys_[id], points_.data() + id * dims_, rows_[id]});
}

uint64_t BitmapIndexBackend::EmitMatches(const RleBitmap& bm,
                                         const scan::Box& box,
                                         const KeyRange* kr,
                                         RowConsumer& out) const {
  uint64_t examined = 0;
  bm.ForEachSet([&](uint64_t id) {
    if (kr != nullptr && (keys_[id] < kr->lo || keys_[id] > kr->hi)) return;
    ++examined;
    if (scan::PointInBox(points_.data() + id * dims_, box.data(), dims_)) {
      Emit(id, out);
    }
  });
  return examined;
}

uint64_t BitmapIndexBackend::ScanRange(const KeyRange& kr,
                                       const scan::Box& box,
                                       RowConsumer& out) const {
  if (kr.lo == kFullKeyRange.lo && kr.hi == kFullKeyRange.hi) {
    // Full-range cover (the root code, or the cover-overflow fallback):
    // every row is examined, in arrival order.
    scan::FilterPoints(points_.data(), dims_, 0, rows_.size(), box.data(),
                       [&](size_t id) { Emit(id, out); });
    return rows_.size();
  }
  constexpr int kFineShift = 64 - kBucketBits;
  constexpr int kSummaryShift = 64 - kSummaryBits;
  constexpr uint32_t kChildren = 1u << (kBucketBits - kSummaryBits);
  uint64_t examined = 0;
  const uint32_t s_hi = SummaryBucket(kr.hi);
  for (size_t si = summary_.LowerBound(SummaryBucket(kr.lo));
       si < summary_.size() && summary_.id_at(si) <= s_hi; ++si) {
    if (si + 1 < summary_.size()) scan::PrefetchRead(&summary_.map_at(si + 1));
    const uint32_t s = summary_.id_at(si);
    const uint64_t s_start = uint64_t{s} << kSummaryShift;
    const uint64_t s_end = s_start | ((uint64_t{1} << kSummaryShift) - 1);
    if (kr.lo <= s_start && s_end <= kr.hi) {
      // Wholly covered summary bucket: one bitmap stands in for its 64
      // children — the hierarchical pruning win.
      examined += EmitMatches(summary_.map_at(si), box, nullptr, out);
      continue;
    }
    const uint32_t f_lo = std::max(FineBucket(kr.lo), s * kChildren);
    const uint32_t f_hi =
        std::min(FineBucket(kr.hi), s * kChildren + (kChildren - 1));
    for (size_t fi = fine_.LowerBound(f_lo);
         fi < fine_.size() && fine_.id_at(fi) <= f_hi; ++fi) {
      if (fi + 1 < fine_.size()) scan::PrefetchRead(&fine_.map_at(fi + 1));
      const uint64_t b_start = uint64_t{fine_.id_at(fi)} << kFineShift;
      const uint64_t b_end = b_start | ((uint64_t{1} << kFineShift) - 1);
      // A range endpoint inside the bucket (cover_len finer than the bucket
      // grid) needs the per-row key check. Never taken with default knobs,
      // where cover ranges are bucket-aligned.
      const bool whole = kr.lo <= b_start && b_end <= kr.hi;
      examined += EmitMatches(fine_.map_at(fi), box, whole ? nullptr : &kr,
                              out);
    }
  }
  return examined;
}

void BitmapIndexBackend::ScanAllRows(RowConsumer& out) const {
  for (size_t id = 0; id < rows_.size(); ++id) Emit(id, out);
}

Status BitmapIndexBackend::ValidateInvariants(const CutTree& cuts, int code_len,
                                              uint64_t expect_bytes) const {
#if MIND_VALIDATORS_ENABLED
  // The columns are parallel to the rows: the filter reads the points and
  // bucket checks read the keys by row id, so any drift returns wrong rows.
  MIND_VALIDATE(keys_.size() == rows_.size(),
                "bitmap-index: key column holds " << keys_.size()
                                                  << " keys for "
                                                  << rows_.size() << " rows");
  MIND_VALIDATE(points_.size() == rows_.size() * dims_,
                "bitmap-index: point column holds "
                    << points_.size() << " values for " << rows_.size()
                    << " rows of " << dims_ << " dims");
  uint64_t bytes = 0;
  Point point(dims_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    const StoredRow& r = rows_[i];
    std::copy_n(points_.data() + i * dims_, dims_, point.begin());
    const uint64_t expect = CodeKey(cuts.CodeForPoint(point, code_len));
    MIND_VALIDATE(keys_[i] == expect,
                  "bitmap-index: row " << i << " (origin " << r.origin
                                       << " seq " << r.seq << ") keyed "
                                       << keys_[i]
                                       << " but its point codes to " << expect
                                       << " under the installed cut tree");
    bytes += StoredRowBytes(dims_, r);
  }
  MIND_VALIDATE(bytes == expect_bytes,
                "bitmap-index: approx_bytes_ is "
                    << expect_bytes << " but stored rows sum to " << bytes);

  // Every row id in exactly its own fine and summary bucket, each once.
  std::vector<uint64_t> ids;
  auto decode = [&ids](const RleBitmap& bm) {
    ids.clear();
    bm.ForEachSet([&ids](uint64_t id) { ids.push_back(id); });
  };
  // Directory order: strictly increasing bucket ids (the probes binary-search
  // the id arrays, so a misordered directory silently misses buckets).
  for (size_t i = 1; i < fine_.size(); ++i) {
    MIND_VALIDATE(fine_.id_at(i - 1) < fine_.id_at(i),
                  "bitmap-index: fine directory misordered at entry "
                      << i << " (" << fine_.id_at(i - 1) << " then "
                      << fine_.id_at(i) << ")");
  }
  for (size_t i = 1; i < summary_.size(); ++i) {
    MIND_VALIDATE(summary_.id_at(i - 1) < summary_.id_at(i),
                  "bitmap-index: summary directory misordered at entry "
                      << i << " (" << summary_.id_at(i - 1) << " then "
                      << summary_.id_at(i) << ")");
  }
  std::vector<uint8_t> fine_seen(rows_.size(), 0);
  std::map<uint32_t, uint64_t> child_cards;  // summary bucket -> fine total
  uint64_t fine_total = 0;
  for (size_t fi = 0; fi < fine_.size(); ++fi) {
    const uint32_t b = fine_.id_at(fi);
    const RleBitmap& bm = fine_.map_at(fi);
    MIND_RETURN_NOT_OK(bm.Validate("fine bucket", b));
    decode(bm);
    for (uint64_t id : ids) {
      MIND_VALIDATE(id < rows_.size(),
                    "bitmap-index: fine bucket " << b << " lists row id " << id
                                                 << " beyond the "
                                                 << rows_.size()
                                                 << " stored rows");
      MIND_VALIDATE(FineBucket(keys_[id]) == b,
                    "bitmap-index: fine bucket "
                        << b << " lists row " << id << " (key "
                        << keys_[id] << ") that buckets to "
                        << FineBucket(keys_[id]));
      ++fine_seen[id];
    }
    child_cards[b >> (kBucketBits - kSummaryBits)] += bm.cardinality();
    fine_total += bm.cardinality();
  }
  MIND_VALIDATE(fine_total == rows_.size(),
                "bitmap-index: fine buckets hold " << fine_total
                                                   << " row ids for "
                                                   << rows_.size()
                                                   << " stored rows");
  for (size_t i = 0; i < fine_seen.size(); ++i) {
    MIND_VALIDATE(fine_seen[i] == 1,
                  "bitmap-index: row " << i << " (key " << keys_[i]
                                       << ") appears in " << int{fine_seen[i]}
                                       << " fine buckets instead of exactly "
                                          "its own");
  }
  for (size_t si = 0; si < summary_.size(); ++si) {
    const uint32_t s = summary_.id_at(si);
    const RleBitmap& bm = summary_.map_at(si);
    MIND_RETURN_NOT_OK(bm.Validate("summary bucket", s));
    MIND_VALIDATE(bm.cardinality() == child_cards[s],
                  "bitmap-index: summary bucket "
                      << s << " cardinality " << bm.cardinality()
                      << " disagrees with its fine children's total "
                      << child_cards[s]);
    decode(bm);
    for (uint64_t id : ids) {
      MIND_VALIDATE(id < rows_.size() && SummaryBucket(keys_[id]) == s,
                    "bitmap-index: summary bucket "
                        << s << " lists row " << id
                        << " that does not summarize to it");
    }
  }
  MIND_VALIDATE(summary_.size() <= fine_.size(),
                "bitmap-index: " << summary_.size() << " summary buckets for "
                                 << fine_.size() << " fine buckets");
#else
  (void)cuts;
  (void)code_len;
  (void)expect_bytes;
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

}  // namespace mind
