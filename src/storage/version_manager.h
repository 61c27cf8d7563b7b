// Daily index versions (paper §3.7).
//
// MIND never migrates historical data when the balanced cuts change: each
// newly installed cut tree opens a new *version* of the index, valid from its
// installation time. A query's time range selects the version(s) it must be
// evaluated against.
#ifndef MIND_STORAGE_VERSION_MANAGER_H_
#define MIND_STORAGE_VERSION_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.h"
#include "space/cut_tree.h"
#include "storage/tuple_store.h"

namespace mind {

using VersionId = uint32_t;

/// \brief The version chain of one index at one node.
class IndexVersions {
 public:
  /// Default store policy with the given key precision (tests, tools).
  explicit IndexVersions(int code_len) { config_.code_len = code_len; }
  /// Full store config: every opened version's store is stamped with it
  /// (layout policy, metrics registry, the node's shared cover cache).
  explicit IndexVersions(TupleStoreConfig config) : config_(config) {}

  /// Opens a new version valid from `start`. Versions must be added in
  /// increasing (id, start) order; the previous version closes at `start`
  /// and — the daily freeze — gets its delta run compacted down, so sealed
  /// stores serve their history at base-run cost.
  ///
  /// The new version's store is *lazy*: opening a version records only the
  /// chain entry (id, start, cuts); the TupleStore materializes on the first
  /// write. A wide-area deployment installs re-balanced cuts on every node
  /// every day, but most nodes receive no data for most versions — eager
  /// stores would grow every node by two allocations per day forever
  /// (bench_fig22_scale10k's RSS gate catches exactly that).
  Status AddVersion(VersionId id, CutTreeRef cuts, SimTime start);

  /// True if `id` has been opened on this chain (materialized or not).
  /// The existence check for protocol paths; Store(id) == nullptr no longer
  /// distinguishes "unknown version" from "no data yet".
  bool HasVersion(VersionId id) const { return Find(id) != nullptr; }

  /// Version in effect at time t (the last version with start <= t), or
  /// nullptr if none. Write-path accessor: materializes the store.
  TupleStore* StoreForTime(SimTime t);

  /// Store of a specific version. The non-const overload is the write path:
  /// it materializes a lazy store (nullptr only for unknown ids). The const
  /// overload is the read path: nullptr for unknown *or* never-written
  /// versions, which readers treat as an empty store.
  TupleStore* Store(VersionId id);
  const TupleStore* Store(VersionId id) const;

  /// Cut tree of a specific version, or nullptr.
  CutTreeRef Cuts(VersionId id) const;

  /// Ids of versions whose validity window [start, next_start) overlaps
  /// [t1, t2] (inclusive); the last version is open-ended.
  std::vector<VersionId> VersionsOverlapping(SimTime t1, SimTime t2) const;

  /// Latest version id, or nullopt if none.
  std::optional<VersionId> LatestVersion() const;

  /// Monotonic count of versions ever opened on this chain. The front-end's
  /// standing queries snapshot this to detect that re-balanced cuts were
  /// installed since their last execution (a cheap "did anything change"
  /// check that never touches the stores).
  uint64_t epoch() const { return epoch_; }

  /// All versions with their validity start times, in order.
  struct VersionInfo {
    VersionId id;
    SimTime start;
  };
  std::vector<VersionInfo> Versions() const;

  /// Start time of a version; error if unknown.
  Result<SimTime> StartOf(VersionId id) const;

  size_t TotalTuples() const;
  uint64_t TotalBytes() const;

  /// Checks the version chain: ids strictly increasing, starts nondecreasing,
  /// every entry carrying a cut tree and a store, and each store built over
  /// the *same* cut tree the chain records for that version (a desync here
  /// would code queries and stored tuples under different embeddings). Also
  /// validates each store. Returns OK trivially when MIND_VALIDATORS is off.
  Status ValidateInvariants() const;

  /// Folds the version chain (ids, start times, store contents) into `out`.
  void DigestInto(Fnv64* out) const;

 private:
  friend class VersionManagerTestPeek;  // corruption injection in validator tests

  struct Entry {
    VersionId id;
    SimTime start;
    CutTreeRef cuts;
    /// Null until the first write (see AddVersion). Readers treat null as an
    /// empty store; DigestInto folds the empty-store digest so lazy and
    /// materialized-but-empty chains are indistinguishable.
    std::unique_ptr<TupleStore> store;
  };
  const Entry* Find(VersionId id) const;
  /// Creates the entry's store on first write.
  TupleStore* Materialize(Entry* e);

  // mind-digest: skip(construction-time config, not evolving state)
  TupleStoreConfig config_;
  std::vector<Entry> entries_;  // sorted by (id, start)
  // mind-digest: skip(monotone open counter; observability only, see epoch())
  uint64_t epoch_ = 0;          // versions ever opened (see epoch())
};

}  // namespace mind

#endif  // MIND_STORAGE_VERSION_MANAGER_H_
