// Metrics registry: named counters, gauges and fixed-bucket histograms,
// cheap enough to stay always-on in the simulator hot path.
//
// Naming convention (see DESIGN.md "Telemetry"): `layer.component.metric`,
// e.g. `sim.net.bytes`, `overlay.join.attempts`, `mind.dac.insert_wait_ms`.
// A unit suffix (`_ms`, `_bytes`) documents what a histogram records.
//
// Instruments are owned by the registry and returned by stable reference, so
// hot paths resolve a name once and cache the pointer. Recording is
// unconditional: every build and every run records, and the simulation never
// reads an instrument back, so recording cannot change what a run does.
#ifndef MIND_TELEMETRY_METRICS_H_
#define MIND_TELEMETRY_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/stats.h"

namespace mind {
namespace telemetry {

class MetricsRegistry;

/// Shard slot recording calls on this thread attribute to: 0 is the serial
/// context; the parallel engine sets 1 + shard while a worker executes a
/// shard. Sharded instruments route each write to its slot, so concurrent
/// shard workers never touch the same memory, and reads aggregate — sums and
/// min/max merges commute, so the aggregate is independent of thread count.
void SetShardSlot(int slot);
int ShardSlot();

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    if (slots_ == nullptr) {
      value_ += delta;
    } else {
      (*slots_)[static_cast<size_t>(ShardSlot()) * kSlotStride] += delta;
    }
  }
  uint64_t value() const {
    uint64_t v = value_;
    if (slots_ != nullptr) {
      for (size_t i = 0; i < slots_->size(); i += kSlotStride) v += (*slots_)[i];
    }
    return v;
  }
  void Reset() {
    value_ = 0;
    if (slots_ != nullptr) std::fill(slots_->begin(), slots_->end(), 0);
  }

 private:
  friend class MetricsRegistry;
  // One cache line per slot so shard workers do not false-share.
  static constexpr size_t kSlotStride = 8;
  Counter() = default;
  void EnableSharding(int slots) {
    slots_ = std::make_unique<std::vector<uint64_t>>(
        static_cast<size_t>(slots) * kSlotStride, 0);
  }
  uint64_t value_ = 0;
  std::unique_ptr<std::vector<uint64_t>> slots_;
};

/// Last-write-wins numeric level (queue depths, fractions, sizes).
/// Serial-context instrument: last-write-wins has no commutative merge, so
/// gauges are not sharded — set them from the orchestrating thread between
/// windows (all in-tree writers already do).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  double value_ = 0;
};

/// Bucket layout of a SimHistogram: geometric bounds
/// min_bound * growth^i for i in [0, buckets). Values above the last bound
/// land in an overflow bucket whose upper edge is the observed maximum.
struct HistogramOptions {
  double min_bound = 1e-3;
  double growth = 1.07;
  int buckets = 360;  // covers ~10 decades above min_bound
};

/// Fixed-bucket histogram for sim-time (or any nonnegative) samples, with
/// percentile extraction by in-bucket interpolation. Recording is O(log B)
/// with no allocation; the worst-case percentile error is one bucket's
/// relative width (~growth - 1).
class SimHistogram {
 public:
  void Record(double v);

  uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double Mean() const {
    uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0;
  }
  /// p in [0, 100]; interpolated inside the covering bucket and clamped to
  /// the observed [min, max].
  double Percentile(double p) const;

  /// Raw bucket arrays of the serial slot (shard slots, if any, are merged
  /// by the accessors above, not here; no in-tree caller needs raw merged
  /// buckets).
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }
  const std::vector<double>& bucket_bounds() const { return bounds_; }
  void Reset();

 private:
  friend class MetricsRegistry;
  explicit SimHistogram(const HistogramOptions& opts);
  void EnableSharding(int slots) { shards_.resize(slots > 1 ? slots - 1 : 0); }
  // Per-shard-slot state (slot i >= 1 maps to shards_[i - 1]; slot 0 uses
  // the base fields). Bucket arrays allocate lazily on first record.
  struct Shard {
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  std::vector<double> bounds_;   // upper edges, size B
  std::vector<uint64_t> counts_; // size B + 1 (last = overflow)
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<Shard> shards_;
};

/// Owner of all named instruments of one run (usually one per Simulator;
/// benches may also hold a standalone registry for run-level aggregates).
/// Instrument references stay valid for the registry's lifetime.
///
/// counter(), gauge() and histogram() may be called from concurrent shard
/// workers: a store opened lazily, or a query tracker created, inside a
/// parallel window looks its instruments up there, and the first lookup of
/// a name inserts it. The rest of the interface is serial-context only.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  SimHistogram& histogram(const std::string& name, HistogramOptions opts = {});

  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const SimHistogram* FindHistogram(const std::string& name) const;

  // Deterministic (name-sorted) iteration for exporters.
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<SimHistogram>>& histograms()
      const {
    return histograms_;
  }

  /// Zeroes every instrument (names and references survive).
  void Reset();

  /// Switches counters and histograms to per-shard-slot recording with
  /// `slots` slots (serial slot 0 + one per shard). Called once by the
  /// parallel engine's Simulator before any worker records; instruments
  /// created later inherit the mode. Reads aggregate across slots.
  void EnableSharding(int slots);
  int shard_slots() const { return shard_slots_; }

 private:
  int shard_slots_ = 0;  // 0 = unsharded
  std::mutex lookup_mu_;  // guards the maps against concurrent lookups
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<SimHistogram>> histograms_;
};

}  // namespace telemetry
}  // namespace mind

#endif  // MIND_TELEMETRY_METRICS_H_
