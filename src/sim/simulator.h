// Convenience owner of the discrete-event world: clock, network, failure
// injector and the root RNG.
#ifndef MIND_SIM_SIMULATOR_H_
#define MIND_SIM_SIMULATOR_H_

#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/failure_injector.h"
#include "sim/network.h"
#include "sim/parallel_engine.h"
#include "telemetry/metrics.h"
#include "util/digest.h"
#include "util/rng.h"

namespace mind {

struct SimulatorOptions {
  NetworkOptions network;
  FailureOptions failures;
  uint64_t seed = 0x5eed;
  /// > 0 opts in to the sharded parallel engine with that many worker
  /// threads. 0 — the default — is the sequential engine. Both run the same
  /// delivery discipline (see Network), so they produce the same StateDigest
  /// for the same seed — the cross-engine identity check_determinism.sh
  /// proves.
  int threads = 0;
  /// Shard count for the parallel engine; 0 picks
  /// ParallelEngine::DefaultShardCount() (hardware-derived, floor
  /// kDefaultShards). Fixed independently of `threads`, so digests are
  /// identical for any thread count over the same shard count — and, because
  /// ordering keys are engine-independent, across shard counts too.
  int shards = 0;
};

/// \brief One simulated world.
///
/// Construct, add hosts via network(), schedule workload via events(), then
/// Run()/RunUntil() to execute.
class Simulator {
 public:
  explicit Simulator(SimulatorOptions options = {});
  ~Simulator();

  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }
  Network& network() { return *network_; }
  FailureInjector& failures() { return *failures_; }
  Rng& rng() { return rng_; }

  telemetry::MetricsRegistry& metrics() { return metrics_; }

  SimTime now() const { return events_.now(); }

  /// Runs until the event queue drains (or `limit` events; the parallel
  /// engine enforces the limit at window granularity).
  size_t Run(size_t limit = SIZE_MAX) {
    return engine_ ? engine_->Run(limit) : events_.Run(limit);
  }

  /// Runs all events with timestamp <= t and advances the clock to t.
  size_t RunUntil(SimTime t) {
    return engine_ ? engine_->RunUntil(t) : events_.RunUntil(t);
  }

  /// Runs `delta` past the current virtual time.
  size_t RunFor(SimTime delta) { return RunUntil(events_.now() + delta); }

  /// The parallel engine, or nullptr on the sequential path.
  ParallelEngine* parallel_engine() { return engine_.get(); }
  const ParallelEngine* parallel_engine() const { return engine_.get(); }

  /// Engine statistics (windows, exchange volume, barrier waits, per-shard
  /// balance), or nullptr on the sequential path.
  const EngineStats* engine_stats() const {
    return engine_ ? &engine_->stats() : nullptr;
  }

  /// The queue that owns `id`'s events: its shard queue under the parallel
  /// engine, the global queue otherwise. Hosts bind to this at construction;
  /// workload drivers schedule onto it via ScheduleOn.
  EventQueue* queue_for(NodeId id) {
    return engine_ ? engine_->queue_for(id) : &events_;
  }

  /// Schedules `fn` at absolute time `at` on the queue owning `owner`.
  /// On the sequential path this is exactly events().ScheduleAt.
  EventId ScheduleOn(NodeId owner, SimTime at, EventFn fn) {
    return queue_for(owner)->ScheduleAt(at, std::move(fn));
  }

  /// Hands a result to client code (DESIGN.md §9): `fn` runs in serial
  /// context, and the deliveries of one instant run in `key` order under
  /// both engines. The parallel engine defers a shard worker's deliveries
  /// to the window barrier (ParallelEngine::Defer); the sequential engine
  /// defers those made inside a run to one kBandResults event at the end of
  /// the current instant. A call made in between runs gets `fn` run at
  /// once.
  void Deliver(uint64_t key, std::function<void()> fn);

  /// Mixes the engine-independent (time, band, ukey) triples of every
  /// pending event — across all shard queues, sorted — into `out`.
  void DigestEventsKeyed(Fnv64* out) const;

 private:
  EventQueue events_;
  // The registry outlives network_/failures_ (declared first) so instruments
  // cached by components stay valid through their destruction.
  telemetry::MetricsRegistry metrics_;
  Rng rng_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<FailureInjector> failures_;
  std::unique_ptr<ParallelEngine> engine_;
  // Sequential engine: the current instant's deliveries, awaiting the
  // kBandResults event that runs them.
  std::vector<Delivery> deliveries_;
};

}  // namespace mind

#endif  // MIND_SIM_SIMULATOR_H_
