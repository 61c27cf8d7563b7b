// Sim-time trace spans: per-operation span trees for the distributed insert
// and query paths, plus a bounded flight recorder for post-mortem analysis
// after injected failures.
//
// A *trace* is all the spans sharing one trace id (a query id or insert id);
// a *span* is one named interval on the sim clock, optionally parented to
// another span of the same trace, tagged with the node it ran on and
// free-form key/value notes. Spans may start on one node and end on another
// (the simulation is single-process), which is how cross-node intervals like
// route->arrival or reply->receipt are measured.
//
// The recorder is a ring buffer over whole traces: when more than
// `max_traces` distinct trace ids are live, the oldest trace is evicted.
// This bounds memory for always-on tracing in long runs while keeping the
// most recent operations inspectable after a failure.
#ifndef MIND_TELEMETRY_TRACE_H_
#define MIND_TELEMETRY_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace mind {
namespace telemetry {

struct TraceSpan {
  uint64_t span_id = 0;
  uint64_t trace_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  int node = -1;  // NodeId of the node that started the span
  SimTime start = 0;
  SimTime end = 0;
  bool closed = false;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// A span tree node (assembled view of one trace).
struct SpanNode {
  const TraceSpan* span = nullptr;
  std::vector<SpanNode> children;
};

class Tracer {
 public:
  /// `clock` supplies the current sim time; `max_traces` bounds the flight
  /// recorder (whole-trace FIFO eviction).
  explicit Tracer(std::function<SimTime()> clock, size_t max_traces = 256,
                  size_t max_spans_per_trace = 1024);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled — every other call
  /// accepts 0 as a no-op handle).
  uint64_t StartSpan(uint64_t trace_id, std::string name,
                     uint64_t parent_id = 0, int node = -1);
  /// Closes a span at the current sim time. No-op for unknown/evicted ids.
  void EndSpan(uint64_t span_id);
  /// Attaches a key/value note to an open or closed span.
  void Note(uint64_t span_id, const std::string& key, std::string value);

  /// All spans of a trace in start order; nullptr if unknown or evicted.
  const std::vector<TraceSpan>* GetTrace(uint64_t trace_id) const;
  /// Root spans of a trace with children nested (tree assembly).
  std::vector<SpanNode> Tree(uint64_t trace_id) const;
  /// Indented human-readable dump of one trace (post-mortem aid).
  std::string Dump(uint64_t trace_id) const;

  size_t trace_count() const { return traces_.size(); }
  uint64_t spans_dropped() const { return spans_dropped_; }
  uint64_t traces_evicted() const { return traces_evicted_; }

 private:
  struct TraceBuf {
    std::vector<TraceSpan> spans;
  };
  // Direct handle into a trace's span vector. TraceBuf pointers are stable
  // (node-based map) until the trace is erased, and every index_ entry of an
  // erased trace is erased with it, so a SpanRef can never dangle.
  struct SpanRef {
    TraceBuf* buf;
    size_t idx;
  };

  using TraceMap = std::unordered_map<uint64_t, TraceBuf>;
  using IndexMap = std::unordered_map<uint64_t, SpanRef>;

  TraceBuf* GetOrCreateTrace(uint64_t trace_id);
  void EvictOldest();

  // Largest span capacity an evicted trace hands on to the next one (see
  // EvictOldest); insert traces fit, wide query traces do not.
  static constexpr size_t kRecycledSpanCapacity = 16;

  std::function<SimTime()> clock_;
  size_t max_traces_;
  size_t max_spans_per_trace_;
#ifdef MIND_TELEMETRY_DISABLED
  bool enabled_ = false;
#else
  bool enabled_ = true;
#endif

  TraceMap traces_;
  std::deque<uint64_t> order_;  // trace ids in first-seen order
  IndexMap index_;              // span id -> its slot
  // One-entry MRU for GetOrCreateTrace: the insert/query paths open several
  // spans on the same trace back to back.
  uint64_t mru_id_ = 0;
  TraceBuf* mru_ = nullptr;
  // Recycled map nodes: at steady state every new trace evicts one, so
  // reusing the extracted nodes (and the TraceBuf's span capacity) makes the
  // recorder allocation-free.
  TraceMap::node_type spare_trace_;
  std::vector<IndexMap::node_type> spare_index_;
  uint64_t next_span_id_ = 1;
  uint64_t spans_dropped_ = 0;
  uint64_t traces_evicted_ = 0;
};

}  // namespace telemetry
}  // namespace mind

#endif  // MIND_TELEMETRY_TRACE_H_
