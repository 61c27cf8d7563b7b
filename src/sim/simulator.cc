#include "sim/simulator.h"

#include <algorithm>

#include "util/logging.h"

namespace mind {

Simulator::Simulator(SimulatorOptions options)
    : rng_(options.seed) {
  options.network.seed = rng_.Fork(1).Next();
  options.failures.seed = rng_.Fork(2).Next();
  network_ = std::make_unique<Network>(&events_, options.network, &metrics_);
  failures_ = std::make_unique<FailureInjector>(&events_, network_.get(),
                                                options.failures);
  telemetry::Counter* run_counter = &metrics().counter("sim.events.processed");
  events_.set_run_counter(run_counter);
  SetLogClock(this, [this]() { return events_.now(); });
  if (options.threads > 0) {
    engine_ = std::make_unique<ParallelEngine>(&events_, network_.get(),
                                               options.threads, options.shards);
    network_->set_parallel_engine(engine_.get());
    // Counters and histograms get one slot per shard (plus the serial slot)
    // so worker recordings never share memory; reads aggregate.
    metrics().EnableSharding(engine_->shard_count() + 1);
    for (int s = 0; s < engine_->shard_count(); ++s) {
      engine_->shard_queue(s).set_run_counter(run_counter);
    }
  }
}

Simulator::~Simulator() { ClearLogClock(this); }

void Simulator::Deliver(uint64_t key, std::function<void()> fn) {
  if (engine_ != nullptr && ParallelEngine::current_shard() >= 0) {
    engine_->Defer(key, std::move(fn));
    return;
  }
  if (engine_ != nullptr || !events_.running()) {
    fn();
    return;
  }
  if (deliveries_.empty()) {
    events_.ScheduleAtKeyed(events_.now(), EventQueue::kBandResults, 0,
                            [this] {
                              std::vector<Delivery> batch;
                              batch.swap(deliveries_);
                              RunDeliveries(&batch);
                            });
  }
  deliveries_.push_back(Delivery{events_.now(), key, std::move(fn)});
}

void Simulator::DigestEventsKeyed(Fnv64* out) const {
  std::vector<std::array<uint64_t, 3>> keys;
  events_.CollectKeyed(&keys);
  if (engine_ != nullptr) {
    for (int s = 0; s < engine_->shard_count(); ++s) {
      engine_->shard_queue(s).CollectKeyed(&keys);
    }
  }
  std::sort(keys.begin(), keys.end());
  out->Mix(static_cast<uint64_t>(keys.size()));
  for (const auto& k : keys) {
    out->Mix(k[0]);
    out->Mix(k[1]);
    out->Mix(k[2]);
  }
}

}  // namespace mind
