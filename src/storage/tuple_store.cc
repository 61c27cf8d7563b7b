#include "storage/tuple_store.h"

#include <algorithm>
#include <span>
#include <string>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/validate.h"

namespace mind {

namespace {

size_t SchemaDims(const CutTreeRef& cuts) {
  MIND_CHECK(cuts != nullptr);
  return static_cast<size_t>(cuts->schema().dims());
}

}  // namespace

TupleStore::TupleStore(CutTreeRef cuts, TupleStoreConfig config)
    : cuts_(std::move(cuts)),
      code_len_(config.code_len),
      opts_(config.options),
      runs_(SchemaDims(cuts_), opts_.compaction, opts_.compact_min_delta,
            opts_.compact_ratio, config.metrics),
      scan_box_(2 * SchemaDims(cuts_)),
      cover_cache_(config.cover_cache) {
  MIND_CHECK(code_len_ > 0 && code_len_ <= BitCode::kMaxLen);
  if (cover_cache_ == nullptr) {
    // No shared per-node cache injected: memoize covers privately. Entries
    // are pure functions of (rect, pinned cuts, len), so this is invisible
    // to results and digests.
    owned_cover_cache_ = std::make_unique<CoverCache>();
    cover_cache_ = owned_cover_cache_.get();
  }
  if (config.metrics != nullptr) {
    config.metrics->counter("storage.backend.sorted.opens").Inc();
    cover_fallbacks_ = &config.metrics->counter("storage.cover.fallback");
  }
}

TupleStore::TupleStore(CutTreeRef cuts, int code_len)
    : TupleStore(std::move(cuts),
                 TupleStoreConfig{code_len, {}, nullptr, nullptr}) {}

void TupleStore::Insert(Tuple tuple) {
  BitCode code = cuts_->CodeForPoint(tuple.point, code_len_);
  InsertRow(CodeKey(code), std::move(tuple));
}

void TupleStore::InsertCoded(Tuple tuple, const BitCode& code) {
  MIND_CHECK(code.length() >= code_len_);
  InsertRow(CodeKey(code.Prefix(code_len_)), std::move(tuple));
}

void TupleStore::InsertRow(uint64_t key, Tuple tuple) {
  MIND_CHECK_EQ(tuple.point.size(), dims());
  approx_bytes_ += tuple.WireBytes() + kRowOverheadBytes;
  runs_.Append(key, tuple.point.data(), tuple.origin, tuple.seq,
               tuple.extra.data(), tuple.extra.size());
}

Tuple TupleStore::ToTuple(const RowView& r) const {
  Tuple t;
  t.point.assign(r.point, r.point + dims());
  t.extra.assign(r.extra, r.extra + r.extra_len);
  t.origin = r.origin;
  t.seq = r.seq;
  return t;
}

template <typename Fn>
void TupleStore::Scan(const Rect& rect, Fn&& fn) const {
  MIND_CHECK_EQ(static_cast<size_t>(rect.dims()), dims());
  scan::Box& box = scan_box_;
  for (size_t d = 0; d < dims(); ++d) {
    const Interval& iv = rect.interval(static_cast<int>(d));
    // An inverted interval holds no point; its width would wrap.
    if (iv.lo > iv.hi) return;
    box[2 * d] = iv.lo;
    box[2 * d + 1] = iv.hi - iv.lo;
  }
  const int len = std::min(opts_.cover_len, code_len_);
  const CoverRanges* cover =
      cover_cache_->GetOrCompute(rect, cuts_, len, opts_.max_cover_codes);
  std::span<const KeyRange> ranges = cover->ranges;
  if (cover->fallback) {
    // Pathologically wide query: the full key range, which the runs walk as
    // they sit — a scan that visits everything gains nothing from key
    // pruning.
    if (cover_fallbacks_ != nullptr) cover_fallbacks_->Inc();
    ranges = {&kFullKeyRange, 1};
  }
  scan_rows_examined_ += runs_.ScanCover(ranges, box, [&](const RowView& r) {
    ++scan_rows_matched_;
    fn(r);
  });
}

std::vector<Tuple> TupleStore::Query(const Rect& rect) const {
  std::vector<Tuple> out;
  QueryInto(rect, &out);
  return out;
}

void TupleStore::QueryInto(const Rect& rect, std::vector<Tuple>* out) const {
  Scan(rect, [this, out](const RowView& r) { out->push_back(ToTuple(r)); });
}

void TupleStore::QueryColumns(const Rect& rect, TupleColumns* out) const {
  MIND_CHECK_EQ(out->dims, dims());
  Scan(rect, [out](const RowView& r) {
    out->Append(r.point, r.extra, r.extra_len, r.origin, r.seq);
  });
}

size_t TupleStore::Count(const Rect& rect) const {
  size_t n = 0;
  Scan(rect, [&n](const RowView&) { ++n; });
  return n;
}

Status TupleStore::ValidateInvariants() const {
#if MIND_VALIDATORS_ENABLED
  MIND_RETURN_NOT_OK(
      runs_.ValidateInvariants(*cuts_, code_len_, approx_bytes_));
  MIND_RETURN_NOT_OK(cuts_->ValidateInvariants());
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

void TupleStore::DigestInto(Fnv64* out) const {
  OrderIndependentAccumulator acc;
  runs_.ScanAllRows([this, &acc](const RowView& r) {
    Fnv64 h;
    h.Mix(r.key);
    h.Mix(static_cast<uint64_t>(static_cast<int64_t>(r.origin)));
    h.Mix(r.seq);
    h.Mix(static_cast<uint64_t>(dims()));
    for (size_t d = 0; d < dims(); ++d) h.Mix(r.point[d]);
    h.Mix(static_cast<uint64_t>(r.extra_len));
    for (size_t e = 0; e < r.extra_len; ++e) h.Mix(r.extra[e]);
    acc.Add(h.value());
  });
  acc.DigestInto(out);
}

void TupleStore::DigestEmptyInto(Fnv64* out) {
  OrderIndependentAccumulator acc;
  acc.DigestInto(out);
}

std::vector<Tuple> TupleStore::AllTuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  runs_.ScanAllRows(
      [this, &out](const RowView& r) { out.push_back(ToTuple(r)); });
  return out;
}

Histogram TupleStore::BuildHistogram(int bins_per_dim, int time_attr,
                                     Value time_shift) const {
  Histogram h(cuts_->schema(), bins_per_dim);
  const bool shift = time_attr >= 0 && time_shift != 0;
  const Value max = shift ? cuts_->schema().attr(time_attr).max : 0;
  Point p(dims());
  runs_.ScanAllRows([&](const RowView& r) {
    p.assign(r.point, r.point + dims());
    if (shift) {
      Value shifted = p[time_attr] + time_shift;
      p[time_attr] = (shifted < p[time_attr] || shifted > max) ? max : shifted;
    }
    h.Add(p);
  });
  return h;
}

}  // namespace mind
