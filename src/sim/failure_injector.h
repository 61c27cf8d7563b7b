// Injects the failure pathologies the paper observed on PlanetLab: transient
// link flaps (routing transients in the underlying network) and node
// crash/recover churn.
#ifndef MIND_SIM_FAILURE_INJECTOR_H_
#define MIND_SIM_FAILURE_INJECTOR_H_

#include <functional>
#include <vector>

#include "sim/network.h"
#include "util/rng.h"

namespace mind {

struct FailureOptions {
  /// Expected number of link flaps per (directed pair, hour). 0 disables.
  double link_flaps_per_pair_hour = 0.0;
  /// Flap duration: exponential with this mean.
  SimTime mean_flap_duration = FromSeconds(10);
  /// Expected node crashes per (node, hour). 0 disables.
  double node_crashes_per_hour = 0.0;
  /// Downtime before a crashed node is revived: exponential with this mean.
  SimTime mean_downtime = FromSeconds(120);
  uint64_t seed = 0xfa11;
};

/// \brief Plans random link outages and node churn on a Network.
///
/// Every outage is pre-sampled into the network's immutable failure plan
/// (Network::PlanLinkOutage / PlanNodeOutage). Node crash/revive transitions
/// are also reported through callbacks, scheduled on the node's own queue.
class FailureInjector {
 public:
  FailureInjector(EventQueue* events, Network* network, FailureOptions options);

  /// Plans outages over [now, now + horizon).
  void Start(SimTime horizon);

  /// Called with the node id when the injector crashes / revives a node.
  using NodeEventFn = std::function<void(NodeId)>;
  void set_on_crash(NodeEventFn fn) { on_crash_ = std::move(fn); }
  void set_on_revive(NodeEventFn fn) { on_revive_ = std::move(fn); }

  /// Only nodes in [first, last] are subject to churn (defaults: all).
  void RestrictChurn(NodeId first, NodeId last) {
    churn_first_ = first;
    churn_last_ = last;
  }

  size_t scheduled_flaps() const { return scheduled_flaps_; }
  size_t scheduled_crashes() const { return scheduled_crashes_; }

 private:
  EventQueue* events_;
  Network* network_;
  FailureOptions options_;
  Rng rng_;
  NodeEventFn on_crash_;
  NodeEventFn on_revive_;
  NodeId churn_first_ = 0;
  NodeId churn_last_ = -1;  // -1 => all
  size_t scheduled_flaps_ = 0;
  size_t scheduled_crashes_ = 0;
};

}  // namespace mind

#endif  // MIND_SIM_FAILURE_INJECTOR_H_
