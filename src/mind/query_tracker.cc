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
  Pending top{root_, cuts_->Root()};
  for (int i = 0; i < root_.length(); ++i) {
    if (!cuts_->Descend(&top.cursor, root_.bit(i))) return;  // vacuous
  }
  PushIfIntersecting(std::move(top));
}

void QueryTracker::AddReply(NodeId resolver, const BitCode& code,
                            std::vector<Tuple> tuples, bool authoritative) {
  ++replies_;
  if (replies_counter_ != nullptr) replies_counter_->Inc();
  responders_.insert(resolver);
  if (!tuples.empty()) positive_responders_.insert(resolver);
  if (authoritative) covered_.push_back(code);
  for (auto& t : tuples) {
    if (seen_tuples_.insert(TupleKey(t)).second) {
      tuples_.push_back(std::move(t));
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
    if (Covered(pending_.back().code)) {
      pending_.pop_back();
      continue;
    }
    if (pending_.back().code.length() >= max_split_len_) return false;
    Pending node = std::move(pending_.back());
    pending_.pop_back();
    // Child 1 goes under child 0 so the walk keeps child-0-first order.
    Pending high{node.code.Child(1), node.cursor};
    if (cuts_->Descend(&high.cursor, 1)) PushIfIntersecting(std::move(high));
    node.code = node.code.Child(0);
    cuts_->Descend(&node.cursor, 0);  // the low side is never empty
    PushIfIntersecting(std::move(node));
  }
  return true;
}

bool QueryTracker::Covered(const BitCode& code) const {
  for (const auto& c : covered_) {
    if (c.IsPrefixOf(code)) return true;
  }
  return false;
}

void QueryTracker::PushIfIntersecting(Pending p) {
  if (p.cursor.rect.Intersects(rect_)) pending_.push_back(std::move(p));
}

}  // namespace mind
