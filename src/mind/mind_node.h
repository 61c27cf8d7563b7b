// One MIND node: the paper's contribution assembled on top of the overlay,
// storage and data-space substrates.
//
// Implements the four-call interface of §3.2 (create_index, drop_index,
// insert_record, query_index) plus the internals of §3.4-§3.8: data-space
// embedding per index version, insert routing, query splitting with direct
// replies and completion detection, prefix-neighbor replication, daily
// version installation and the histogram collection service.
#ifndef MIND_MIND_MIND_NODE_H_
#define MIND_MIND_MIND_NODE_H_

#include <functional>
#include <map>
#include <set>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mind/index_def.h"
#include "mind/messages.h"
#include "util/digest.h"
#include "mind/query_tracker.h"
#include "overlay/overlay_node.h"
#include "storage/cover_cache.h"
#include "storage/version_manager.h"

namespace mind {

// Kept only because perfbench/main.cc names them; the store has one layout.
enum class IndexBackendKind { kSortedRuns };
inline const char* IndexBackendKindName(IndexBackendKind) { return "sorted"; }

struct MindOptions {
  /// Bits of data-space code computed for inserts/queries; must exceed any
  /// node code length (overlay depth), 64 max.
  int insert_code_len = 32;
  /// Replication level m (§3.8): each stored tuple is copied to the peers
  /// sharing len-1 .. len-m code bits. 0 disables; -1 replicates to every
  /// peer ("full replication" in Figure 16).
  int replication = 1;
  /// Originator-side query timeout; an incomplete query is reported with
  /// complete=false (counted as failed in the Figure 16 experiment).
  SimTime query_timeout = FromSeconds(45);
  /// Max sub-query code length (split depth bound).
  int max_split_len = 24;
  /// Local processing model, replacing the prototype's MySQL DAC: per-tuple
  /// insert commit time and per-sub-query resolution time. Arriving work
  /// queues FIFO behind the node's single storage thread (this is what makes
  /// hotspot nodes produce the paper's long latency tails).
  SimTime insert_proc_time = 300;        // 0.3 ms per tuple
  /// Storage-thread cost of each tuple after the first in a committed batch
  /// (InsertBatch): the batch shares one commit pass, so later tuples are
  /// cheaper than insert_proc_time.
  SimTime batch_item_proc_time = 100;    // 0.1 ms per extra batched tuple
  SimTime query_proc_base = 2000;        // 2 ms per sub-query
  SimTime query_proc_per_tuple = 5;      // + 5 us per returned tuple
  /// Two-level store compaction (delta merged into base at the size-ratio
  /// trigger and at version freeze). Layout-only: results, timings and
  /// digests are identical on or off.
  bool store_compaction = true;
  /// Kept only because perfbench/main.cc names it; the store has one layout.
  IndexBackendKind store_backend = IndexBackendKind::kSortedRuns;
  uint64_t seed = 0x31337;
};

/// Final result of a distributed query, delivered to the caller's callback.
struct QueryResult {
  uint64_t query_id = 0;
  /// False if the timeout fired before full coverage (some sub-queries
  /// unanswered, e.g. owners dead without replicas).
  bool complete = false;
  std::vector<Tuple> tuples;
  SimTime latency = 0;
  /// Distinct nodes that resolved sub-queries (responders).
  size_t responders = 0;
  /// Responders that returned data — "the nodes involved while retrieving
  /// the results" (Figure 9's query cost headline).
  size_t positive_responders = 0;
  /// Distinct nodes the originator knows took part (itself + responders).
  /// For the paper's full "query cost" (forwarders included, Figure 9) use
  /// MindNet's per-query visit registry, which observes every hop.
  size_t nodes_visited = 0;
};

class MindNode {
 public:
  MindNode(Simulator* sim, OverlayOptions overlay_options, MindOptions options,
           std::optional<GeoPoint> position = std::nullopt);

  OverlayNode& overlay() { return overlay_; }
  const OverlayNode& overlay() const { return overlay_; }
  NodeId id() const { return overlay_.id(); }

  // ---- §3.2 interface ----------------------------------------------------

  /// Creates an index on every node (overlay broadcast), opening version
  /// `version` with embedding `cuts` valid from `start`.
  Status CreateIndex(const IndexDef& def, CutTreeRef cuts,
                     VersionId version = 1, SimTime start = 0);

  /// Removes the index from every node.
  Status DropIndex(const std::string& name);

  /// Opens a new version of an index with new (re-balanced) cuts on every
  /// node. Data is never migrated (§3.7); the old version keeps serving
  /// queries over its time range.
  Status InstallCuts(const std::string& name, VersionId version,
                     CutTreeRef cuts, SimTime start);

  /// Inserts a record into an index from this node. The destination version
  /// is chosen by the tuple's timestamp attribute (or the latest version if
  /// the index is not time-versioned).
  Status Insert(const std::string& index, Tuple tuple);

  /// Inserts a batch of records from this node as one message train: tuples
  /// ride together while their data-space codes share a prefix, and the train
  /// splits at region boundaries (mirroring query splitting, §3.6). Final
  /// placement is identical to calling Insert per tuple; only the message
  /// count and the DAC commit schedule differ (see batch_item_proc_time).
  Status InsertBatch(const std::string& index, std::vector<Tuple> tuples);

  using QueryCallback = std::function<void(const QueryResult&)>;

  /// Issues a multi-dimensional range query. Returns the query id; the
  /// callback fires exactly once (completion, timeout or cancellation).
  ///
  /// The callback always runs in serial context (DESIGN.md §9): under the
  /// parallel engine on the orchestrating thread at the barrier of the
  /// window the query finalized in, never on a shard worker; under the
  /// sequential engine at the end of the instant it finalized at. Results
  /// that finalize at one sim instant are delivered in query-id order, so
  /// the delivered stream — order, latencies, tuples — is identical under
  /// every engine, thread count and shard count. A cancellation or crash
  /// issued between runs delivers before returning. Under the parallel
  /// engine a callback may only record: scheduling or cancelling work from
  /// it fails a MIND_CHECK.
  Result<uint64_t> Query(const std::string& index, const Rect& rect,
                         QueryCallback callback);

  /// Cancels a pending query this node originated, reclaiming its trackers
  /// immediately instead of waiting for the 45 s timeout sweep. The callback
  /// fires (once) with complete=false and whatever tuples arrived; counted
  /// under `mind.query.timeouts` like any other abandoned query. Returns
  /// false if the query is unknown or already finalized.
  bool CancelQuery(uint64_t query_id);

  // ---- failure control (benches / churn) ----------------------------------

  void BecomeFirst() { overlay_.BecomeFirst(); }
  void Join(NodeId bootstrap) { overlay_.Join(bootstrap); }
  void Crash();
  void Revive(NodeId bootstrap);

  // ---- introspection -------------------------------------------------------

  bool HasIndex(const std::string& name) const { return indices_.count(name) > 0; }
  /// Names of the indices this node knows, in lexicographic order.
  std::vector<std::string> IndexNames() const;
  const IndexDef* GetIndexDef(const std::string& name) const;
  /// Tuples held for an index (primary copies only).
  size_t PrimaryTupleCount(const std::string& name) const;
  /// Tuples held as replicas.
  size_t ReplicaTupleCount(const std::string& name) const;
  const IndexVersions* PrimaryVersions(const std::string& name) const;
  /// Queries originated here that are still awaiting completion/timeout.
  size_t pending_query_count() const { return queries_.size(); }

  /// Fired at the *storing* node when a tuple commits (primary copy).
  /// 32 bytes: benches keep one per commit for a whole run.
  struct StoredInfo {
    SimTime committed_at = 0;  // virtual time of the commit
    SimTime latency = 0;       // insert-call to commit
    NodeId origin = kInvalidNode;
    NodeId storer = kInvalidNode;
    int hops = 0;              // overlay hops of the insert path
  };
  static_assert(sizeof(StoredInfo) == 32);
  using StoredFn = std::function<void(const StoredInfo&)>;
  void set_on_stored(StoredFn fn) { on_stored_ = std::move(fn); }

  /// Fired whenever this node sees a query (forwarding, splitting or
  /// resolving); benches use it to measure the paper's query cost.
  using QueryVisitFn = std::function<void(uint64_t query_id, NodeId node)>;
  void set_on_query_visit(QueryVisitFn fn) { on_query_visit_ = std::move(fn); }

  /// Fired whenever this node opens a new index version (index creation or a
  /// re-balanced cut installation), with the primary chain's new epoch. The
  /// front-end's standing queries hang off this to re-execute against fresh
  /// cuts. Observational only — must never feed back into simulation state.
  using VersionOpenedFn =
      std::function<void(const std::string& index, VersionId version,
                         uint64_t epoch)>;
  void set_on_version_opened(VersionOpenedFn fn) {
    on_version_opened_ = std::move(fn);
  }

  // ---- histogram / balancing service (§3.7) --------------------------------

  /// Runs one collection round from this (designated) node: broadcast a
  /// histogram request for `version` of `index`, merge replies for
  /// `collect_window`, build balanced cuts of depth `cut_depth`, and install
  /// them as `new_version` valid from `new_start`.
  struct RebalanceParams {
    std::string index;
    VersionId source_version = 1;
    int bins_per_dim = 8;
    int cut_depth = 8;
    VersionId new_version = 2;
    SimTime new_start = 0;
    SimTime collect_window = FromSeconds(10);
    /// Timestamp-attribute shift applied when histogramming (typically one
    /// day, so the new cuts sit where the next day's data will fall).
    Value time_shift = 0;
  };
  Status StartRebalance(const RebalanceParams& params,
                        std::function<void(Status)> done = nullptr);

  // ---- correctness tooling -------------------------------------------------

  /// Checks node-local structure: overlay consistency, and every index's
  /// primary and replica version chains (store keys vs cut trees, byte
  /// accounting, cut-tree shape). Returns OK trivially when MIND_VALIDATORS
  /// is off.
  Status ValidateInvariants() const;

  /// Folds this node's logical state (overlay, indices, DAC clock, local
  /// sequence counters) into `out`. Deliberately excludes telemetry and
  /// anything address- or capacity-dependent, so digests agree across runs
  /// and whatever the metrics registry holds.
  void DigestInto(Fnv64* out) const;

 private:
  struct IndexState {
    IndexDef def;
    IndexVersions primary;
    IndexVersions replicas;
    /// Versions learned through IndexSync (we joined after their creation):
    /// their pre-join data lives at our split parent (§3.4 forward pointer).
    std::set<VersionId> synced_versions;
    IndexState(IndexDef d, const TupleStoreConfig& config)
        : def(std::move(d)), primary(config), replicas(config) {}
  };

  struct PendingQuery {
    std::string index;
    Rect rect;
    QueryCallback callback;
    SimTime started = 0;
    std::map<VersionId, QueryTracker> trackers;
    EventId timeout_event = 0;
  };

  struct PendingCollection {
    RebalanceParams params;
    std::shared_ptr<Histogram> merged;
    size_t replies = 0;
    std::function<void(Status)> done;
  };

  // message plumbing
  void OnDelivered(NodeId origin, const MessagePtr& inner, int hops);
  void OnBroadcastMsg(NodeId origin, const MessagePtr& inner);
  void OnDirect(NodeId from, const MessagePtr& msg);
  // Data migration for a relabel into a disjoint region (recursive
  // takeover): copies every stored tuple to the peer that inherits
  // `old_code`'s region, and asks every peer for the tuples it holds in
  // `new_code`'s region.
  void HandOffRegion(const BitCode& old_code);
  void RequestRegionData(const BitCode& new_code);
  // Sends the tuples stored here (both chains, every version) to `to` as
  // replicas; only those inside `region` unless it is null.
  void SendTuplesAsReplicas(NodeId to, const BitCode* region);
  void OnForward(const MessagePtr& inner);

  void ApplyCreateIndex(const CreateIndexMsg& m);
  void ApplyInstallCuts(const InstallCutsMsg& m);
  // Split-or-commit step for a batch (owns / spans / misrouted), recursing on
  // sub-trains that stay local.
  void OnInsertBatchArrived(const std::shared_ptr<InsertBatchMsg>& m, int hops);
  // Queues an InsertMsg or an InsertBatchMsg that landed in our region on the
  // DAC, then stores, reports and replicates its tuples in one pass.
  template <typename InsertT>
  void CommitInserts(const std::shared_ptr<InsertT>& m, int hops);
  void OnQueryArrived(const std::shared_ptr<QueryMsg>& m);
  void HandleQueryCode(const std::shared_ptr<QueryMsg>& m, const BitCode& code);
  void ResolveAndReply(const QueryMsg& m, const BitCode& code);
  void OnQueryReply(const QueryReplyMsg& m);
  void OnHistRequest(const HistRequestMsg& m);
  void OnHistReply(const HistReplyMsg& m);
  void FinalizeQuery(uint64_t query_id, bool complete);
  void RequestIndexSync();
  void NoteQueryVisit(uint64_t query_id);

  IndexState* FindIndex(const std::string& name);
  const IndexState* FindIndex(const std::string& name) const;
  /// The store config stamped onto every version chain this node opens
  /// (key precision, compaction policy, metrics, the shared cover cache).
  TupleStoreConfig StoreConfig();

  Simulator* sim_;
  EventQueue* events_;
  // mind-digest: skip(construction-time config, not evolving state)
  MindOptions options_;
  // mind-digest: skip(RNG cursor; its draws shape state that is digested)
  Rng rng_;
  OverlayNode overlay_;
  /// One cover cache per node, shared by all of its stores (primary and
  /// replica chains of every index); keyed by cuts identity, so distinct
  /// versions never collide. Excluded from DigestInto by design.
  // mind-digest: skip(pure cache; hits and misses produce identical results)
  CoverCache cover_cache_;
  /// The cursor HandleQueryCode's splits and ResolveAndReply's scan
  /// rectangle walk in place, kept so neither allocates.
  // mind-digest: skip(walk scratch; reset at the start of every walk)
  CutTree::Cursor walk_cursor_;

  std::map<std::string, IndexState> indices_;
  // mind-digest: skip(in-flight bookkeeping; completions land in digested state)
  std::unordered_map<uint64_t, PendingQuery> queries_;
  uint64_t query_seq_ = 0;
  // Inserts and trains originated here. Nothing reads it back, but
  // DigestInto mixes it, so dropping it would re-pin every digest.
  uint64_t insert_seq_ = 0;

  // local storage-thread model (the DAC queue)
  SimTime dac_busy_until_ = 0;

  // data-sibling forward pointer (§3.4): the node we split from holds data
  // inserted into versions that predate our join.
  NodeId data_sibling_ = kInvalidNode;
  SimTime join_time_ = 0;

  // mind-digest: skip(in-flight bookkeeping; completions land in digested state)
  std::unordered_map<uint64_t, PendingCollection> collections_;
  // mind-digest: skip(request id allocator; ids are local and never stored)
  uint64_t collection_seq_ = 0;

  StoredFn on_stored_;
  QueryVisitFn on_query_visit_;
  VersionOpenedFn on_version_opened_;

  // Registry instruments (`mind.*`, `storage.scan.*`), aggregated across all
  // nodes of one Simulator. Cached at construction; never null.
  struct Instruments {
    telemetry::Counter* inserts;
    telemetry::Counter* queries;
    telemetry::Counter* query_timeouts;
    telemetry::Counter* replicas_sent;
    telemetry::SimHistogram* insert_latency_ms;
    telemetry::SimHistogram* insert_hops;
    telemetry::SimHistogram* dac_insert_wait_ms;
    telemetry::SimHistogram* dac_query_wait_ms;
    telemetry::SimHistogram* query_latency_ms;
    telemetry::SimHistogram* subquery_len;
    telemetry::SimHistogram* replicate_fanout;
    telemetry::SimHistogram* scan_rows_examined;
    telemetry::SimHistogram* scan_rows_returned;
  };
  Instruments tm_;
};

}  // namespace mind

#endif  // MIND_MIND_MIND_NODE_H_
