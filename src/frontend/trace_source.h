// Trace sources: where the live front-end's flow records come from.
//
// A TraceSource is a pull-based, time-ordered stream of raw FlowRecords. The
// ingest pipeline maps record timestamps onto sim time (optionally scaled by
// a replay-rate multiplier) and pulls exactly the records whose replay time
// has arrived, so a multi-hour trace never needs to be materialized.
//
// Three implementations cover the deployment modes:
//   * VectorTraceSource    — an in-memory, pre-sorted batch (tests).
//   * BinaryTraceSource    — streams an MFT1 binary trace (trace_io.h) from
//                            any istream; validation errors surface through
//                            Next() exactly where the corruption sits.
//   * GeneratorTraceSource — wraps the synthetic FlowGenerator, producing
//                            windows on demand and sorting each window into
//                            global time order (the generator emits per-router
//                            batches).
#ifndef MIND_FRONTEND_TRACE_SOURCE_H_
#define MIND_FRONTEND_TRACE_SOURCE_H_

#include <cstddef>
#include <deque>
#include <istream>
#include <vector>

#include "traffic/flow.h"
#include "traffic/flow_generator.h"
#include "traffic/trace_io.h"
#include "util/status.h"

namespace mind {
namespace frontend {

/// \brief Pull interface over a time-ordered flow-record stream.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Fills `*out` with the next record and returns true, or returns false at
  /// a clean end of stream. Errors (e.g. a corrupt binary trace) are final:
  /// after the first non-OK result the source stays exhausted.
  virtual Result<bool> Next(FlowRecord* out) = 0;
};

/// In-memory source; `flows` must already be time-ordered.
class VectorTraceSource : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<FlowRecord> flows)
      : flows_(std::move(flows)) {}
  Result<bool> Next(FlowRecord* out) override;

 private:
  std::vector<FlowRecord> flows_;
  size_t next_ = 0;
};

/// Streams an MFT1 binary trace. Does not own the stream.
class BinaryTraceSource : public TraceSource {
 public:
  explicit BinaryTraceSource(std::istream* in) : reader_(in) {}
  Result<bool> Next(FlowRecord* out) override;

 private:
  BinaryFlowReader reader_;
  bool opened_ = false;
  bool failed_ = false;
};

/// Generates synthetic traffic window by window. Each window's records are
/// stable-sorted by timestamp (the generator emits per-router batches), so
/// downstream consumers see one globally time-ordered stream.
class GeneratorTraceSource : public TraceSource {
 public:
  /// Streams [t0_sec, t1_sec) of `day`, produced in `window_sec` chunks.
  /// Does not own the generator. The range must lie within one day
  /// (day >= 0, 0 <= t0_sec, t1_sec <= 86400) and window_sec must be > 0;
  /// otherwise the first Next() returns InvalidArgument.
  GeneratorTraceSource(FlowGenerator* gen, int day, double t0_sec,
                       double t1_sec, double window_sec = 30.0)
      : gen_(gen), day_(day), next_t_(t0_sec), t1_(t1_sec),
        window_(window_sec) {}
  Result<bool> Next(FlowRecord* out) override;

 private:
  Status CheckRange() const;
  void Refill();

  FlowGenerator* gen_;
  int day_;
  double next_t_;
  double t1_;
  double window_;
  bool checked_ = false;
  std::deque<FlowRecord> buffer_;
};

}  // namespace frontend
}  // namespace mind

#endif  // MIND_FRONTEND_TRACE_SOURCE_H_
