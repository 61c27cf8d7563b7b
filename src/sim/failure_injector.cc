#include "sim/failure_injector.h"

#include <algorithm>

#include "util/logging.h"

namespace mind {

FailureInjector::FailureInjector(EventQueue* events, Network* network,
                                 FailureOptions options)
    : events_(events), network_(network), options_(options), rng_(options.seed) {}

void FailureInjector::Start(SimTime horizon) {
  const size_t n = network_->host_count();
  // Outages are registered as an immutable plan on the network rather than
  // fired as mid-run events, so every shard can resolve liveness at send
  // time without cross-shard reads.

  if (options_.link_flaps_per_pair_hour > 0) {
    for (NodeId a = 0; a < static_cast<NodeId>(n); ++a) {
      for (NodeId b = a + 1; b < static_cast<NodeId>(n); ++b) {
        // Poisson process over the horizon, pre-sampled.
        double rate_per_us =
            options_.link_flaps_per_pair_hour / (3600.0 * 1e6);
        SimTime t = events_->now();
        for (;;) {
          t += static_cast<SimTime>(rng_.Exponential(rate_per_us));
          if (t >= events_->now() + horizon) break;
          SimTime dur = static_cast<SimTime>(rng_.Exponential(
              1.0 / static_cast<double>(options_.mean_flap_duration)));
          network_->PlanLinkOutage(a, b, t, t + std::max<SimTime>(dur, 1));
          ++scheduled_flaps_;
        }
      }
    }
  }

  if (options_.node_crashes_per_hour > 0) {
    NodeId last = churn_last_ < 0 ? static_cast<NodeId>(n) - 1 : churn_last_;
    for (NodeId id = churn_first_; id <= last; ++id) {
      double rate_per_us = options_.node_crashes_per_hour / (3600.0 * 1e6);
      SimTime t = events_->now();
      for (;;) {
        t += static_cast<SimTime>(rng_.Exponential(rate_per_us));
        if (t >= events_->now() + horizon) break;
        SimTime down = static_cast<SimTime>(rng_.Exponential(
            1.0 / static_cast<double>(options_.mean_downtime)));
        // Network-level blackout. The crash/revive callbacks run as events
        // on the node's own shard queue; overlay-level crash protocols
        // (which mutate fleet-wide state) stay a sequential-engine feature,
        // so callbacks are only scheduled when someone registered them.
        network_->PlanNodeOutage(id, t, t + std::max<SimTime>(down, 1));
        if (on_crash_) {
          network_->queue_for(id)->ScheduleAt(t,
                                              [this, id]() { on_crash_(id); });
        }
        if (on_revive_) {
          network_->queue_for(id)->ScheduleAt(
              t + std::max<SimTime>(down, 1),
              [this, id]() { on_revive_(id); });
        }
        ++scheduled_crashes_;
        t += down;  // next crash only after recovery
      }
    }
  }
}

}  // namespace mind
