#include "mind/query_tracker.h"

#include "util/logging.h"

namespace mind {

namespace {
// Codes one completion check may examine: bounds the work of a single call
// when a wide query's replies arrive out of walk order.
constexpr int kCoverBudget = 20000;
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
  Pending top{root_, cuts_->Root()};
  for (int i = 0; i < root_.length(); ++i) {
    if (!cuts_->Descend(&top.cursor, root_.bit(i))) return;  // vacuous
  }
  PushIfIntersecting(std::move(top));
}

void QueryTracker::AddReply(NodeId resolver, const BitCode& code,
                            const TupleColumns& rows, bool authoritative) {
  ++replies_;
  if (replies_counter_ != nullptr) replies_counter_->Inc();
  responders_.insert(resolver);
  if (!rows.empty()) {
    positive_responders_.insert(resolver);
    MIND_CHECK_EQ(rows.dims, rows_.dims);
  }
  if (authoritative) {
    covered_.push_back(code);
    covered_codes_.insert(code);
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
  while (!pending_.empty()) {
    if (--budget < 0) {
      if (budget_exhausted_counter_ != nullptr) {
        budget_exhausted_counter_->Inc();
      }
      return false;
    }
    if (Covered(&pending_.back())) {
      pending_.pop_back();
      continue;
    }
    if (pending_.back().code.length() >= max_split_len_) return false;
    Pending node = std::move(pending_.back());
    pending_.pop_back();
    // Child 1 goes under child 0 so the walk keeps child-0-first order.
    Pending high{node.code.Child(1), node.cursor, node.tested};
    if (cuts_->Descend(&high.cursor, 1)) PushIfIntersecting(std::move(high));
    node.code = node.code.Child(0);
    cuts_->Descend(&node.cursor, 0);  // the low side is never empty
    PushIfIntersecting(std::move(node));
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

void QueryTracker::PushIfIntersecting(Pending p) {
  if (!p.cursor.rect.Intersects(rect_)) return;
  // A reply the parent was tested against covers this child only if its
  // code is the child's: any shorter one would have covered the parent.
  p.exact = p.tested > 0 && covered_codes_.count(p.code) > 0;
  pending_.push_back(std::move(p));
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
