#include "mind/query_tracker.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/logging.h"

namespace mind {

namespace {
// Codes one completion check may examine: bounds the work of a single call
// when a wide query's replies arrive out of walk order.
constexpr int kCoverBudget = 20000;

// The order of the covered-code set. Any strict order serves an exact
// lookup; (length, bits) is the cheapest to compare.
bool CodeLess(const BitCode& a, const BitCode& b) {
  return a.length() != b.length() ? a.length() < b.length()
                                  : a.bits() < b.bits();
}

// Adds `v` to `set`, which is sorted by `less` and distinct.
template <typename T, typename Less = std::less<T>>
void InsertSorted(std::vector<T>* set, const T& v, Less less = Less()) {
  auto it = std::lower_bound(set->begin(), set->end(), v, less);
  if (it == set->end() || less(v, *it)) set->insert(it, v);
}
}  // namespace

QueryTracker::QueryTracker(Rect rect, BitCode root, CutTreeRef cuts,
                           int max_split_len,
                           telemetry::MetricsRegistry* metrics)
    : rect_(std::move(rect)),
      root_(root),
      cuts_(std::move(cuts)),
      max_split_len_(max_split_len) {
  MIND_CHECK(cuts_ != nullptr);
  if (metrics != nullptr) {
    replies_counter_ = &metrics->counter("mind.query.replies");
    dup_tuples_counter_ = &metrics->counter("mind.query.duplicate_tuples");
    budget_exhausted_counter_ =
        &metrics->counter("mind.query.cover_budget_exhausted");
  }
  rows_.dims = static_cast<size_t>(rect_.dims());
  Pending& top = pending_.emplace_back(Pending{root_, cuts_->Root()});
  for (int i = 0; i < root_.length(); ++i) {
    if (!cuts_->Descend(&top.cursor, root_.bit(i))) return;  // vacuous
  }
  if (Admit(&top)) depth_ = 1;
}

void QueryTracker::AddReply(NodeId resolver, const BitCode& code,
                            const TupleColumns& rows, bool authoritative) {
  ++replies_;
  if (replies_counter_ != nullptr) replies_counter_->Inc();
  InsertSorted(&responders_, resolver);
  if (!rows.empty()) {
    InsertSorted(&positive_responders_, resolver);
    MIND_CHECK_EQ(rows.dims, rows_.dims);
  }
  if (authoritative) {
    covered_.push_back(code);
    InsertSorted(&covered_codes_, code, CodeLess);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (seen_tuples_.Insert(rows.key(i))) {
      rows_.AppendRow(rows, i);
    } else if (dup_tuples_counter_ != nullptr) {
      dup_tuples_counter_->Inc();
    }
  }
}

bool QueryTracker::IsComplete() {
  int budget = kCoverBudget;
  while (depth_ > 0) {
    if (--budget < 0) {
      if (budget_exhausted_counter_ != nullptr) {
        budget_exhausted_counter_->Inc();
      }
      return false;
    }
    if (Covered(&pending_[depth_ - 1])) {
      --depth_;
      continue;
    }
    if (pending_[depth_ - 1].code.length() >= max_split_len_) return false;
    // Split in place: the top becomes its child 1 and the slot above it
    // child 0, so the walk keeps child-0-first order. Assigning the cursor
    // into the retired slot reuses that slot's Rect storage.
    if (depth_ == pending_.size()) pending_.emplace_back();
    Pending& high = pending_[depth_ - 1];
    Pending& low = pending_[depth_];
    low.code = high.code.Child(0);
    low.cursor = high.cursor;
    low.tested = high.tested;
    cuts_->Descend(&low.cursor, 0);  // the low side is never empty
    high.code = high.code.Child(1);
    const bool keep_high = cuts_->Descend(&high.cursor, 1) && Admit(&high);
    const bool keep_low = Admit(&low);
    if (!keep_high) std::swap(high, low);
    depth_ = depth_ - 1 + (keep_high ? 1 : 0) + (keep_low ? 1 : 0);
  }
  return true;
}

bool QueryTracker::Covered(Pending* p) {
  if (p->exact) return true;
  for (; p->tested < covered_.size(); ++p->tested) {
    if (covered_[p->tested].IsPrefixOf(p->code)) return true;
  }
  return false;
}

bool QueryTracker::Admit(Pending* p) const {
  if (!p->cursor.rect.Intersects(rect_)) return false;
  // A reply the parent was tested against covers this child only if its
  // code is the child's: any shorter one would have covered the parent.
  p->exact = p->tested > 0 && std::binary_search(covered_codes_.begin(),
                                                 covered_codes_.end(), p->code,
                                                 CodeLess);
  return true;
}

std::vector<Tuple> MergeResults(
    const std::map<VersionId, QueryTracker>& trackers) {
  // One tracker's rows are distinct already; across versions, de-dup.
  const bool dedup = trackers.size() > 1;
  KeySet seen;
  size_t total = 0;
  for (const auto& [v, tracker] : trackers) total += tracker.rows().size();
  std::vector<Tuple> out;
  out.reserve(total);
  for (const auto& [v, tracker] : trackers) {
    const TupleColumns& rows = tracker.rows();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!dedup || seen.Insert(rows.key(i))) {
        out.push_back(rows.TupleAt(i));
      }
    }
  }
  return out;
}

}  // namespace mind
