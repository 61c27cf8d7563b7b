#include "mind/query_tracker.h"

#include "util/logging.h"

namespace mind {

namespace {
uint64_t TupleKey(const Tuple& t) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(t.origin)) << 40) ^
         t.seq;
}
// Exploration budget for completion checks: bounds pathological recursion
// when replies are missing for a wide query.
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

bool QueryTracker::IsComplete() const {
  int budget = kCoverBudget;
  const bool complete = CoveredRec(root_, &budget);
  if (budget < 0 && budget_exhausted_counter_ != nullptr) {
    budget_exhausted_counter_->Inc();
  }
  return complete;
}

bool QueryTracker::CoveredRec(const BitCode& code, int* budget) const {
  if (--(*budget) < 0) return false;
  for (const auto& c : covered_) {
    if (c.IsPrefixOf(code)) return true;
  }
  auto rect = cuts_->RectForCode(code);
  if (!rect.has_value() || !rect->Intersects(rect_)) return true;  // vacuous
  if (code.length() >= max_split_len_) return false;
  return CoveredRec(code.Child(0), budget) && CoveredRec(code.Child(1), budget);
}

}  // namespace mind
