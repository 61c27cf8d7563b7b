// Streaming ingest pipeline: TraceSource -> Aggregator -> index tuples ->
// per-(monitor, index) Batcher lanes -> MindNode::InsertBatch.
//
// The pipeline replays a flow trace on the simulator's virtual clock: record
// timestamps map to sim time through a rate multiplier, and a periodic pump
// event pulls exactly the records whose replay time has arrived. Aggregation
// windows close on the trace clock (as in the paper's monitors), the
// resulting tuples are coalesced per lane by the Batcher, and ready batches
// are committed as InsertBatch trains from the observing monitor's node.
//
// Back-pressure is explicit: with OverflowPolicy::kDefer a full lane stops
// the pipeline from pulling new trace records (the replay falls behind until
// the lane drains); with kDropNewest overflowing tuples are counted and
// discarded. Both paths are visible under `frontend.ingest.*`.
//
// Determinism: lanes live in a std::map and are flushed in key order, the
// pump runs on the simulator's event queue, and all telemetry is passive —
// a frontend-driven run is bit-identically replayable (the --frontend mode
// of tools/check_determinism.sh enforces this).
#ifndef MIND_FRONTEND_INGEST_PIPELINE_H_
#define MIND_FRONTEND_INGEST_PIPELINE_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "frontend/batcher.h"
#include "frontend/trace_source.h"
#include "mind/mind_net.h"
#include "traffic/aggregator.h"
#include "traffic/indices.h"

namespace mind {
namespace frontend {

struct IngestOptions {
  /// Trace second that maps to the pipeline's start sim time; < 0 derives it
  /// from the first record.
  double t0_sec = -1.0;
  /// Trace seconds replayed per sim second (2.0 = replay at twice speed).
  double rate_multiplier = 1.0;
  /// Pump period (sim time). Bounds the granularity of deadline flushes, so
  /// keep it at or below the batcher's flush_deadline.
  SimTime pump_interval = FromMillis(250);
  /// Which paper indices the trace feeds.
  bool feed_index1 = true;
  bool feed_index2 = true;
  bool feed_index3 = true;
  PaperIndexOptions index_opts;
  AggregatorOptions agg;
  BatcherOptions batcher;
};

class IngestPipeline {
 public:
  /// Owns neither the net nor the source; both must outlive the pipeline.
  IngestPipeline(MindNet* net, TraceSource* source, IngestOptions options);

  /// Schedules the first pump at the current sim time. Call once; the
  /// pipeline then drives itself until the source is exhausted and every
  /// lane has drained.
  void Start();

  /// True once the trace is fully replayed and all lanes are flushed.
  bool done() const { return done_; }

  /// First source error, if the trace turned out to be malformed (the
  /// pipeline stops pulling and drains what it has).
  const Status& source_status() const { return source_status_; }

  /// Observer for every tuple emitted toward an index (fired before
  /// batching, including tuples later dropped by overflow). The front-end
  /// wires this to the query service's selectivity histograms.
  using TupleFn = std::function<void(const std::string& index, const Tuple&)>;
  void set_on_tuple(TupleFn fn) { on_tuple_ = std::move(fn); }

  // -- progress accessors (bench / tests) ---------------------------------
  uint64_t records_in() const { return records_in_; }
  uint64_t tuples_out() const { return tuples_out_; }
  uint64_t tuples_dropped() const { return tuples_dropped_; }
  uint64_t batches_sent() const { return batches_sent_; }
  uint64_t defer_rounds() const { return defer_rounds_; }
  /// Tuples currently buffered across all lanes.
  size_t queued_tuples() const;
  /// Tuples refused by a kDefer lane and parked in the holdover buffer.
  size_t holdover_tuples() const { return holdover_.size(); }

 private:
  using LaneKey = std::pair<int, std::string>;  // (monitor, index)

  void Pump();
  void PullUpTo(double trace_now);
  void EmitAggregates(std::vector<AggregateRecord> aggregates);
  /// Offers one tuple to its lane; returns false on a kDefer refusal (the
  /// tuple goes to the holdover buffer).
  bool OfferTuple(int monitor, const std::string& index, Tuple tuple);
  void FlushLanes(SimTime now, bool force);

  MindNet* net_;
  TraceSource* source_;
  IngestOptions options_;
  Aggregator aggregator_;

  SimTime epoch_ = 0;        // sim time of Start()
  bool started_ = false;
  bool done_ = false;
  bool source_done_ = false;
  Status source_status_ = Status::OK();
  bool have_lookahead_ = false;
  FlowRecord lookahead_;

  std::map<LaneKey, Batcher> lanes_;
  /// Tuples refused by a kDefer lane, re-offered before any new pull.
  std::vector<std::pair<LaneKey, Tuple>> holdover_;

  uint64_t seq_ = 0;  // unique per-pipeline tuple sequence
  uint64_t records_in_ = 0;
  uint64_t tuples_out_ = 0;
  uint64_t tuples_dropped_ = 0;
  uint64_t batches_sent_ = 0;
  uint64_t defer_rounds_ = 0;

  TupleFn on_tuple_;

  struct Instruments {
    telemetry::Counter* records;
    telemetry::Counter* aggregates;
    telemetry::Counter* tuples;
    telemetry::Counter* dropped;
    telemetry::Counter* deferrals;
    telemetry::Counter* batches;
    telemetry::SimHistogram* batch_tuples;
    telemetry::SimHistogram* queue_depth;
  };
  Instruments tm_;
};

}  // namespace frontend
}  // namespace mind

#endif  // MIND_FRONTEND_INGEST_PIPELINE_H_
