// MindNet: a whole simulated MIND deployment in one object — the analogue of
// the paper's PlanetLab slice. Owns the simulator, the MIND nodes and global
// measurement hooks (insertion latency samples, per-query visit sets).
#ifndef MIND_MIND_MIND_NET_H_
#define MIND_MIND_MIND_NET_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mind/mind_node.h"

namespace mind {

struct MindNetOptions {
  SimulatorOptions sim;
  OverlayOptions overlay;
  MindOptions mind;
  /// Geographic positions per node; empty => default network latency.
  std::vector<GeoPoint> positions;
  /// Stagger between node joins while building the overlay.
  SimTime join_stagger = FromMillis(300);
  SimTime build_deadline = FromSeconds(3600);
};

class MindNet {
 public:
  /// Creates `n` nodes (positions, if given, must have length n).
  MindNet(size_t n, MindNetOptions options);

  size_t size() const { return nodes_.size(); }
  MindNode& node(size_t i) { return *nodes_[i]; }
  Simulator& sim() { return *sim_; }
  Network& network() { return sim_->network(); }

  /// Joins all nodes into one overlay (node 0 bootstraps). Error if the
  /// deadline passes first.
  Status Build(bool concurrent_joins = false);

  /// Creates an index from node 0 and runs until every live node has it.
  Status CreateIndexEverywhere(const IndexDef& def, CutTreeRef cuts,
                               VersionId version = 1, SimTime start = 0);

  /// Installs a new version everywhere (runs the flood to completion).
  Status InstallCutsEverywhere(const std::string& name, VersionId version,
                               CutTreeRef cuts, SimTime start);

  // ---- global measurement ---------------------------------------------

  /// All insert commits across the net. Under the sequential engine this is
  /// raw commit order; under the parallel engine the per-shard buffers are
  /// merged into (committed_at, storer) order, which is identical for every
  /// thread count.
  const std::vector<MindNode::StoredInfo>& stored() const;
  void ClearStored();

  /// Distinct overlay nodes visited by a query (the paper's query cost).
  size_t QueryVisitCount(uint64_t query_id) const;
  void ClearVisits();

  /// Sum of primary tuples over all nodes for an index.
  size_t TotalPrimaryTuples(const std::string& index) const;

  /// Per-node primary tuple counts (Figure 13's storage distribution).
  std::vector<size_t> PrimaryTupleDistribution(const std::string& index) const;

  size_t JoinedCount() const;
  bool CodesFormCompleteCover() const;

  // ---- correctness tooling ---------------------------------------------

  /// Validates every node's local structure plus the event queue. When
  /// `quiescent` (the default), additionally checks fleet-wide overlay
  /// invariants — complete code cover and sibling-link symmetry — which only
  /// hold between topology changes; pass false while joins/crashes are in
  /// flight. Returns OK trivially when MIND_VALIDATORS is off.
  Status ValidateInvariants(bool quiescent = true) const;

  /// FNV-1a 64 digest of the deployment's logical state: virtual clock,
  /// pending events, and every node's overlay/index/storage state. Two runs
  /// of the same seeded scenario must produce identical digests, whatever
  /// telemetry recorded or reset mid-run; tools/check_determinism.sh and
  /// TelemetryIntegrationTest enforce this.
  uint64_t StateDigest() const;

  /// Runs the non-quiescent validators every `interval` of virtual time,
  /// piggybacked on event execution (aborts via MIND_CHECK on violation).
  void EnablePeriodicValidation(SimTime interval);

 private:
  std::unique_ptr<Simulator> sim_;
  std::vector<std::unique_ptr<MindNode>> nodes_;
  MindNetOptions options_;
  // Measurement hooks fire from whichever shard executes the commit, so each
  // shard gets a private buffer (slot 0 = serial / control context, slot s+1 =
  // shard s). Reads happen only between runs and merge deterministically.
  std::vector<std::vector<MindNode::StoredInfo>> stored_slots_;
  std::vector<std::unordered_map<uint64_t, std::unordered_set<NodeId>>>
      visit_slots_;
  mutable std::vector<MindNode::StoredInfo> stored_merged_;
};

}  // namespace mind

#endif  // MIND_MIND_MIND_NET_H_
