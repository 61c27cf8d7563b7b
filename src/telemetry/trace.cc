#include "telemetry/trace.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace mind {
namespace telemetry {

Tracer::Tracer(std::function<SimTime()> clock, size_t max_traces,
               size_t max_spans_per_trace)
    : clock_(std::move(clock)),
      max_traces_(max_traces),
      max_spans_per_trace_(max_spans_per_trace) {
  MIND_CHECK(clock_ != nullptr);
  MIND_CHECK_GT(max_traces_, 0u);
}

Tracer::TraceBuf* Tracer::GetOrCreateTrace(uint64_t trace_id) {
  if (trace_id == mru_id_ && mru_ != nullptr) return mru_;
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    if (traces_.size() >= max_traces_) EvictOldest();
    order_.push_back(trace_id);
    if (spare_trace_) {
      spare_trace_.key() = trace_id;
      it = traces_.insert(std::move(spare_trace_)).position;
    } else {
      it = traces_.emplace(trace_id, TraceBuf{}).first;
    }
  }
  mru_id_ = trace_id;
  mru_ = &it->second;
  return mru_;
}

void Tracer::EvictOldest() {
  while (!order_.empty()) {
    uint64_t victim = order_.front();
    order_.pop_front();
    auto it = traces_.find(victim);
    if (it == traces_.end()) continue;  // already gone
    for (const TraceSpan& s : it->second.spans) {
      auto nh = index_.extract(s.span_id);
      if (nh && spare_index_.size() < 2 * max_spans_per_trace_) {
        spare_index_.push_back(std::move(nh));
      }
    }
    if (victim == mru_id_) mru_ = nullptr;
    spare_trace_ = traces_.extract(it);
    // Keep a small buffer's capacity for reuse; release a large one. The
    // recycled buffer goes to the next new trace, so a kept capacity would
    // ratchet every ring slot up to the largest trace it ever held, and the
    // recorder's memory would grow with the number of big traces ever seen.
    std::vector<TraceSpan>& spans = spare_trace_.mapped().spans;
    if (spans.capacity() > kRecycledSpanCapacity) {
      std::vector<TraceSpan>().swap(spans);
    } else {
      spans.clear();
    }
    ++traces_evicted_;
    return;
  }
}

uint64_t Tracer::StartSpan(uint64_t trace_id, std::string name,
                           uint64_t parent_id, int node) {
#ifdef MIND_TELEMETRY_DISABLED
  (void)trace_id;
  (void)name;
  (void)parent_id;
  (void)node;
  return 0;
#else
  if (!enabled_) return 0;
  TraceBuf* buf = GetOrCreateTrace(trace_id);
  if (buf->spans.size() >= max_spans_per_trace_) {
    ++spans_dropped_;
    return 0;
  }
  TraceSpan span;
  span.span_id = next_span_id_++;
  span.trace_id = trace_id;
  span.parent_id = parent_id;
  span.name = std::move(name);
  span.node = node;
  span.start = clock_();
  if (!spare_index_.empty()) {
    auto nh = std::move(spare_index_.back());
    spare_index_.pop_back();
    nh.key() = span.span_id;
    nh.mapped() = SpanRef{buf, buf->spans.size()};
    index_.insert(std::move(nh));
  } else {
    index_.emplace(span.span_id, SpanRef{buf, buf->spans.size()});
  }
  buf->spans.push_back(std::move(span));
  return buf->spans.back().span_id;
#endif
}

void Tracer::EndSpan(uint64_t span_id) {
  if (span_id == 0) return;
  auto it = index_.find(span_id);
  if (it == index_.end()) return;  // evicted
  TraceSpan& span = it->second.buf->spans[it->second.idx];
  if (span.closed) return;
  span.end = clock_();
  span.closed = true;
}

void Tracer::Note(uint64_t span_id, const std::string& key,
                  std::string value) {
  if (span_id == 0) return;
  auto it = index_.find(span_id);
  if (it == index_.end()) return;
  it->second.buf->spans[it->second.idx].notes.emplace_back(key,
                                                           std::move(value));
}

const std::vector<TraceSpan>* Tracer::GetTrace(uint64_t trace_id) const {
  auto it = traces_.find(trace_id);
  return it == traces_.end() ? nullptr : &it->second.spans;
}

std::vector<SpanNode> Tracer::Tree(uint64_t trace_id) const {
  std::vector<SpanNode> roots;
  const std::vector<TraceSpan>* spans = GetTrace(trace_id);
  if (spans == nullptr) return roots;
  // Group children indices by parent id; spans whose parent is missing
  // (0, evicted, or dropped past the cap) become roots.
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans->size(); ++i) by_id[(*spans)[i].span_id] = i;
  std::vector<size_t> root_idx;
  for (size_t i = 0; i < spans->size(); ++i) {
    const TraceSpan& s = (*spans)[i];
    if (s.parent_id != 0 && by_id.count(s.parent_id)) {
      children[s.parent_id].push_back(i);
    } else {
      root_idx.push_back(i);
    }
  }
  std::function<SpanNode(size_t)> build = [&](size_t i) {
    SpanNode n;
    n.span = &(*spans)[i];
    auto it = children.find(n.span->span_id);
    if (it != children.end()) {
      for (size_t c : it->second) n.children.push_back(build(c));
    }
    return n;
  };
  for (size_t i : root_idx) roots.push_back(build(i));
  return roots;
}

std::string Tracer::Dump(uint64_t trace_id) const {
  std::ostringstream out;
  std::function<void(const SpanNode&, int)> rec = [&](const SpanNode& n,
                                                      int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
    out << n.span->name << " node=" << n.span->node << " ["
        << ToSeconds(n.span->start) << "s";
    if (n.span->closed) {
      out << " +" << ToSeconds(n.span->end - n.span->start) << "s]";
    } else {
      out << " OPEN]";
    }
    for (const auto& [k, v] : n.span->notes) out << " " << k << "=" << v;
    out << "\n";
    for (const SpanNode& c : n.children) rec(c, depth + 1);
  };
  for (const SpanNode& root : Tree(trace_id)) rec(root, 0);
  return out.str();
}

}  // namespace telemetry
}  // namespace mind
