#include "frontend/trace_source.h"

#include <algorithm>
#include <string>

namespace mind {
namespace frontend {

Result<bool> VectorTraceSource::Next(FlowRecord* out) {
  if (next_ == flows_.size()) return false;
  *out = flows_[next_++];
  return true;
}

Result<bool> BinaryTraceSource::Next(FlowRecord* out) {
  if (failed_) return false;
  if (!opened_) {
    Status st = reader_.Open();
    if (!st.ok()) {
      failed_ = true;
      return st;
    }
    opened_ = true;
  }
  auto more = reader_.Next(out);
  if (!more.ok()) failed_ = true;
  return more;
}

void GeneratorTraceSource::Refill() {
  while (buffer_.empty() && next_t_ < t1_) {
    double t_end = std::min(next_t_ + window_, t1_);
    std::vector<FlowRecord> window = gen_->GenerateVec(day_, next_t_, t_end);
    next_t_ = t_end;
    // Stable: ties keep generation order, which is itself deterministic.
    std::stable_sort(window.begin(), window.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.time_sec < b.time_sec;
                     });
    buffer_.assign(window.begin(), window.end());
  }
}

Status GeneratorTraceSource::CheckRange() const {
  // Negated comparisons so NaN is rejected too.
  if (!(window_ > 0.0)) {
    return Status::InvalidArgument(
        "generator trace: window_sec must be > 0, got " +
        std::to_string(window_));
  }
  if (day_ < 0 || !(next_t_ >= 0.0) || !(t1_ <= 86400.0)) {
    return Status::InvalidArgument(
        "generator trace: range day " + std::to_string(day_) + " [" +
        std::to_string(next_t_) + ", " + std::to_string(t1_) +
        ") s is not within one day (day >= 0, 0 <= t0 and t1 <= 86400)");
  }
  return Status::OK();
}

Result<bool> GeneratorTraceSource::Next(FlowRecord* out) {
  if (!checked_) {
    checked_ = true;
    Status st = CheckRange();
    if (!st.ok()) {
      next_t_ = t1_;  // the error is final: the stream stays exhausted
      return st;
    }
  }
  Refill();
  if (buffer_.empty()) return false;
  *out = buffer_.front();
  buffer_.pop_front();
  return true;
}

}  // namespace frontend
}  // namespace mind
