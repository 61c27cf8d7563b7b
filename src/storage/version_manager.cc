#include "storage/version_manager.h"

#include "util/logging.h"
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
  }
  Entry e;
  e.id = id;
  e.start = start;
  e.cuts = std::move(cuts);
  entries_.push_back(std::move(e));
  ++epoch_;
  return Status::OK();
}

TupleStore* IndexVersions::Materialize(Entry* e) {
  if (e->store == nullptr) {
    e->store = std::make_unique<TupleStore>(e->cuts, config_);
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
