#include "storage/version_manager.h"

#include "util/logging.h"
#include "util/snapio.h"
#include "util/validate.h"

namespace mind {

Status IndexVersions::AddVersion(VersionId id, CutTreeRef cuts, SimTime start) {
  if (cuts == nullptr) {
    return Status::InvalidArgument("null cut tree");
  }
  if (!entries_.empty()) {
    if (id <= entries_.back().id) {
      return Status::InvalidArgument("version ids must increase");
    }
    if (start < entries_.back().start) {
      return Status::InvalidArgument("version start times must not decrease");
    }
    // Daily freeze (§3.7): the closing version stops taking the bulk of the
    // inserts once the new one opens; merge its delta down now so its
    // history is served from a single sorted run. (Stragglers timestamped
    // into the old window still insert fine — they just reopen a delta.)
    // A never-written (lazy) store has nothing to freeze.
    if (entries_.back().store != nullptr &&
        entries_.back().store->compaction_enabled()) {
      entries_.back().store->Compact();
    }
    // Adaptive backend hand-off: the closing store's observed ingest/query
    // mix is the evidence the next version's store resolves kAdaptive with
    // (a cold chain starts on kSortedRuns; see ChooseIndexBackend). A lazy
    // closing store saw no ingest and no queries: zero evidence, exactly
    // what an eager empty store would report.
    if (config_.options.backend == IndexBackendKind::kAdaptive) {
      config_.adaptive_stats = entries_.back().store != nullptr
                                   ? entries_.back().store->workload_stats()
                                   : BackendWorkloadStats{};
    }
  }
  Entry e;
  e.id = id;
  e.start = start;
  e.cuts = std::move(cuts);
  e.adaptive_at_open = BoxEvidence(config_.adaptive_stats);
  entries_.push_back(std::move(e));
  ++epoch_;
  return Status::OK();
}

std::unique_ptr<const BackendWorkloadStats> IndexVersions::BoxEvidence(
    const BackendWorkloadStats& stats) {
  const bool zero = stats.rows == 0 && stats.queries == 0 &&
                    stats.cover_ranges == 0 && stats.rows_examined == 0 &&
                    stats.rows_matched == 0;
  if (zero) return nullptr;
  return std::make_unique<const BackendWorkloadStats>(stats);
}

TupleStore* IndexVersions::Materialize(Entry* e) {
  if (e->store == nullptr) {
    TupleStoreConfig config = config_;
    config.adaptive_stats = e->OpenEvidence();
    e->store = std::make_unique<TupleStore>(e->cuts, config);
  }
  return e->store.get();
}

TupleStore* IndexVersions::StoreForTime(SimTime t) {
  Entry* best = nullptr;
  for (auto& e : entries_) {
    if (e.start <= t) best = &e;
  }
  return best != nullptr ? Materialize(best) : nullptr;
}

const IndexVersions::Entry* IndexVersions::Find(VersionId id) const {
  for (const auto& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

TupleStore* IndexVersions::Store(VersionId id) {
  Entry* e = const_cast<Entry*>(Find(id));
  return e != nullptr ? Materialize(e) : nullptr;
}

const TupleStore* IndexVersions::Store(VersionId id) const {
  const Entry* e = Find(id);
  return e ? e->store.get() : nullptr;
}

CutTreeRef IndexVersions::Cuts(VersionId id) const {
  const Entry* e = Find(id);
  return e ? e->cuts : nullptr;
}

std::vector<VersionId> IndexVersions::VersionsOverlapping(SimTime t1,
                                                          SimTime t2) const {
  std::vector<VersionId> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    SimTime start = entries_[i].start;
    SimTime end = (i + 1 < entries_.size()) ? entries_[i + 1].start : UINT64_MAX;
    if (start <= t2 && t1 < end) out.push_back(entries_[i].id);
  }
  return out;
}

std::vector<IndexVersions::VersionInfo> IndexVersions::Versions() const {
  std::vector<VersionInfo> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back({e.id, e.start});
  return out;
}

Result<SimTime> IndexVersions::StartOf(VersionId id) const {
  const Entry* e = Find(id);
  if (e == nullptr) return Status::NotFound("unknown version");
  return e->start;
}

std::optional<VersionId> IndexVersions::LatestVersion() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.back().id;
}

Status IndexVersions::ValidateInvariants() const {
#if MIND_VALIDATORS_ENABLED
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    MIND_VALIDATE(i == 0 || entries_[i - 1].id < e.id,
                  "version-manager: version ids not strictly increasing ("
                      << entries_[i - 1].id << " then " << e.id << ")");
    MIND_VALIDATE(i == 0 || entries_[i - 1].start <= e.start,
                  "version-manager: version " << e.id << " starts at " << e.start
                                              << ", before version " << entries_[i - 1].id
                                              << " at " << entries_[i - 1].start);
    MIND_VALIDATE(e.cuts != nullptr, "version-manager: version " << e.id << " has no cut tree");
    // A null store is a lazily-opened version that has never been written.
    if (e.store != nullptr) {
      MIND_VALIDATE(e.store->cuts().get() == e.cuts.get(),
                    "version-manager: version " << e.id
                                                << " cut tree desynced from its store's "
                                                   "(queries and stored tuples would be "
                                                   "coded under different embeddings)");
      MIND_RETURN_NOT_OK(e.store->ValidateInvariants());
    }
  }
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

void IndexVersions::DigestInto(Fnv64* out) const {
  out->Mix(static_cast<uint64_t>(entries_.size()));
  for (const auto& e : entries_) {
    out->Mix(static_cast<uint64_t>(e.id));
    out->Mix(e.start);
    if (e.store != nullptr) {
      e.store->DigestInto(out);
    } else {
      TupleStore::DigestEmptyInto(out);
    }
  }
}

void IndexVersions::SaveSnapshotState(
    SnapWriter* w,
    const std::function<uint32_t(const CutTreeRef&)>& tree_index) const {
  w->U64(epoch_);
  w->U64(entries_.size());
  for (const Entry& e : entries_) {
    w->U32(e.id);
    w->U64(e.start);
    w->U32(tree_index(e.cuts));
    const BackendWorkloadStats ao = e.OpenEvidence();
    w->U64(ao.rows);
    w->U64(ao.queries);
    w->U64(ao.cover_ranges);
    w->U64(ao.rows_examined);
    w->U64(ao.rows_matched);
    if (e.store == nullptr) {
      w->U8(0);  // lazy: the version has never been written
    } else {
      w->U8(1);
      w->U8(static_cast<uint8_t>(e.store->backend_kind()));
      e.store->SaveSnapshotState(w);
    }
  }
}

Status IndexVersions::LoadSnapshotState(SnapReader* r,
                                        const std::vector<CutTreeRef>& trees) {
  if (!entries_.empty()) {
    return Status::Internal("snapshot: restoring into a non-empty chain");
  }
  MIND_ASSIGN_OR_RETURN(epoch_, r->U64("versions.epoch"));
  uint64_t count;
  MIND_ASSIGN_OR_RETURN(count, r->U64("versions.count"));
  if (count > (uint64_t{1} << 20)) {
    return r->FieldError("versions.count",
                         "implausible chain length " + std::to_string(count));
  }
  entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Entry e;
    MIND_ASSIGN_OR_RETURN(e.id, r->U32("versions.entry.id"));
    MIND_ASSIGN_OR_RETURN(e.start, r->U64("versions.entry.start"));
    uint32_t tree_idx;
    MIND_ASSIGN_OR_RETURN(tree_idx, r->U32("versions.entry.tree"));
    if (tree_idx >= trees.size()) {
      return r->FieldError("versions.entry.tree",
                           "tree index " + std::to_string(tree_idx) +
                               " outside the interned table of " +
                               std::to_string(trees.size()));
    }
    e.cuts = trees[tree_idx];
    BackendWorkloadStats ao;
    MIND_ASSIGN_OR_RETURN(ao.rows, r->U64("versions.ao.rows"));
    MIND_ASSIGN_OR_RETURN(ao.queries, r->U64("versions.ao.queries"));
    MIND_ASSIGN_OR_RETURN(ao.cover_ranges, r->U64("versions.ao.cover_ranges"));
    MIND_ASSIGN_OR_RETURN(ao.rows_examined,
                          r->U64("versions.ao.rows_examined"));
    MIND_ASSIGN_OR_RETURN(ao.rows_matched, r->U64("versions.ao.rows_matched"));
    e.adaptive_at_open = BoxEvidence(ao);
    if (!entries_.empty()) {
      if (e.id <= entries_.back().id) {
        return r->FieldError("versions.entry.id",
                             "version ids not strictly increasing");
      }
      if (e.start < entries_.back().start) {
        return r->FieldError("versions.entry.start",
                             "version start times decrease");
      }
    }
    uint8_t materialized;
    MIND_ASSIGN_OR_RETURN(materialized, r->U8("versions.entry.materialized"));
    if (materialized > 1) {
      return r->FieldError("versions.entry.materialized", "not a boolean");
    }
    if (materialized != 0) {
      uint8_t kind;
      MIND_ASSIGN_OR_RETURN(kind, r->U8("versions.entry.backend"));
      if (kind != static_cast<uint8_t>(IndexBackendKind::kSortedRuns) &&
          kind != static_cast<uint8_t>(IndexBackendKind::kBitmap)) {
        return r->FieldError(
            "versions.entry.backend",
            "kind " + std::to_string(kind) +
                " is not a resolved backend (0=sorted, 1=bitmap)");
      }
      // Reopen with the saved resolved kind: never re-run the adaptive
      // choice at restore, or a chain snapshotted mid-history could flip
      // its layout and (through scan counters) its future evidence.
      TupleStoreConfig config = config_;
      config.options.backend = static_cast<IndexBackendKind>(kind);
      config.adaptive_stats = ao;
      e.store = std::make_unique<TupleStore>(e.cuts, config);
      MIND_RETURN_NOT_OK(e.store->LoadSnapshotState(r));
    }
    entries_.push_back(std::move(e));
  }
  // AddVersion keeps config_.adaptive_stats equal to the newest entry's
  // open-time evidence; restore the same relationship.
  if (!entries_.empty()) {
    config_.adaptive_stats = entries_.back().OpenEvidence();
  }
  return Status::OK();
}

size_t IndexVersions::TotalTuples() const {
  size_t n = 0;
  for (const auto& e : entries_) {
    if (e.store != nullptr) n += e.store->size();
  }
  return n;
}

uint64_t IndexVersions::TotalBytes() const {
  uint64_t n = 0;
  for (const auto& e : entries_) {
    if (e.store != nullptr) n += e.store->approx_bytes();
  }
  return n;
}

}  // namespace mind
