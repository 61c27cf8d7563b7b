// In-memory wall-clock spans recorded by the benchmark around its own calls
// into the library: one span per layer boundary crossed, kept in memory and
// written out when the run ends.
//
// A span is (name, start, end, parent, operation id). Spans nest strictly —
// every call the benchmark wraps runs to completion before its caller's span
// ends — so a span's self time is its duration minus its direct children's.
// The span name's first dotted component is the layer it times (`sim.run`,
// `mind.insert`, `traffic.source`, ...).
#ifndef MIND_PERFBENCH_SPANS_H_
#define MIND_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frontend/trace_source.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, -1 at the root
    uint64_t op;     // operation id, 0 when the span is not one operation
  };

  int32_t Begin(const char* name, uint64_t op) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent, op});
    const auto id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  void Clear() {
    spans_.clear();
    open_.clear();
  }

  struct NameTotals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  /// Per-name call count, total and self time over the spans that start in
  /// [from_ns, to_ns).
  std::map<std::string, NameTotals> Summarize(int64_t from_ns,
                                              int64_t to_ns) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, NameTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Writes every span as CSV (times relative to the first span's start).
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id,name,start_ns,end_ns,parent,op\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%lld,%d,%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Records one span into `log`; a null log (an untraced round) records
/// nothing, so untraced rounds pay one predictable branch per wrapped call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// TraceSource decorator: one `traffic.source` span per pull, so the time
/// the synthetic generator spends producing records shows as its own layer.
class TimedTraceSource : public mind::frontend::TraceSource {
 public:
  TimedTraceSource(std::unique_ptr<mind::frontend::TraceSource> inner,
                   SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}
  mind::Result<bool> Next(mind::FlowRecord* out) override {
    ScopedSpan span(log_, "traffic.source");
    return inner_->Next(out);
  }

 private:
  std::unique_ptr<mind::frontend::TraceSource> inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // MIND_PERFBENCH_SPANS_H_
