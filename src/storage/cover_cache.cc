#include "storage/cover_cache.h"

#include "telemetry/metrics.h"
#include "util/digest.h"

namespace mind {

namespace {

uint64_t EntryDigest(const Rect& rect, const CutTree* cuts, int len) {
  Fnv64 h;
  h.Mix(static_cast<uint64_t>(rect.dims()));
  for (int d = 0; d < rect.dims(); ++d) {
    h.Mix(rect.interval(d).lo);
    h.Mix(rect.interval(d).hi);
  }
  h.Mix(static_cast<uint64_t>(reinterpret_cast<uintptr_t>(cuts)));
  h.Mix(static_cast<uint64_t>(len));
  return h.value();
}

}  // namespace

CoverRanges ComputeCoverRanges(const CutTree& cuts, const Rect& rect, int len,
                               size_t max_codes, CoverScratch* scratch) {
  CoverRanges out;
  if (!cuts.Cover(rect, len, max_codes, &scratch->cursor, &scratch->codes)
           .ok()) {
    out.fallback = true;
    return out;
  }
  for (const BitCode& code : scratch->codes) {
    uint64_t lo = CodeKey(code);
    uint64_t hi = CodeKeyEnd(code);
    // CoverRec emits codes in ascending key order (bit-0 child first), so
    // abutting regions arrive adjacent and merge in place.
    if (!out.ranges.empty() && out.ranges.back().hi != UINT64_MAX &&
        out.ranges.back().hi + 1 == lo) {
      out.ranges.back().hi = hi;
    } else {
      out.ranges.push_back({lo, hi});
    }
  }
  return out;
}

CoverCache::CoverCache(telemetry::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    hits_ = &metrics->counter("storage.cover_cache.hits");
    misses_ = &metrics->counter("storage.cover_cache.misses");
  }
}

void CoverCache::Invalidate() {
  // clear() keeps the bucket array; swapping with an empty table frees it.
  decltype(table_)().swap(table_);
  entries_ = 0;
  scratch_ = CoverScratch();
}

const CoverRanges* CoverCache::GetOrCompute(const Rect& rect,
                                            const CutTreeRef& cuts, int len,
                                            size_t max_codes) {
  const uint64_t key = EntryDigest(rect, cuts.get(), len);
  auto it = table_.find(key);
  if (it != table_.end()) {
    for (const Entry& e : it->second) {
      if (e.len == len && e.cuts.get() == cuts.get() && e.rect == rect) {
        if (hits_ != nullptr) hits_->Inc();
        return &e.cover;
      }
    }
  }
  if (misses_ != nullptr) misses_->Inc();
  if (entries_ >= kMaxEntries) {
    table_.clear();
    entries_ = 0;
  }
  Entry e;
  e.rect = rect;
  e.cuts = cuts;
  e.len = len;
  e.cover = ComputeCoverRanges(*cuts, rect, len, max_codes, &scratch_);
  std::vector<Entry>& chain = table_[key];
  chain.push_back(std::move(e));
  ++entries_;
  return &chain.back().cover;
}

}  // namespace mind
