#include "telemetry/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace mind {
namespace telemetry {

namespace {
// Which shard slot this thread's recordings attribute to; 0 = serial context.
thread_local int tls_shard_slot = 0;
}  // namespace

void SetShardSlot(int slot) { tls_shard_slot = slot; }
int ShardSlot() { return tls_shard_slot; }

SimHistogram::SimHistogram(const HistogramOptions& opts) {
  MIND_CHECK_GT(opts.min_bound, 0.0);
  MIND_CHECK_GT(opts.growth, 1.0);
  MIND_CHECK_GT(opts.buckets, 0);
  bounds_.reserve(static_cast<size_t>(opts.buckets));
  double b = opts.min_bound;
  for (int i = 0; i < opts.buckets; ++i) {
    bounds_.push_back(b);
    b *= opts.growth;
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void SimHistogram::Record(double v) {
  if (v < 0) v = 0;
  int slot = shards_.empty() ? 0 : ShardSlot();
  if (slot == 0) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++counts_[static_cast<size_t>(it - bounds_.begin())];
    return;
  }
  Shard& s = shards_[static_cast<size_t>(slot - 1)];
  if (s.counts.empty()) s.counts.assign(bounds_.size() + 1, 0);
  if (s.count == 0) {
    s.min = s.max = v;
  } else {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  ++s.count;
  s.sum += v;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++s.counts[static_cast<size_t>(it - bounds_.begin())];
}

uint64_t SimHistogram::count() const {
  uint64_t n = count_;
  for (const Shard& s : shards_) n += s.count;
  return n;
}

double SimHistogram::sum() const {
  double v = sum_;
  for (const Shard& s : shards_) v += s.sum;
  return v;
}

double SimHistogram::min() const {
  bool have = count_ > 0;
  double v = have ? min_ : 0;
  for (const Shard& s : shards_) {
    if (s.count == 0) continue;
    v = have ? std::min(v, s.min) : s.min;
    have = true;
  }
  return v;
}

double SimHistogram::max() const {
  bool have = count_ > 0;
  double v = have ? max_ : 0;
  for (const Shard& s : shards_) {
    if (s.count == 0) continue;
    v = have ? std::max(v, s.max) : s.max;
    have = true;
  }
  return v;
}

double SimHistogram::Percentile(double p) const {
  uint64_t n = count();
  if (n == 0) return 0;
  // Extend the bounds with the observed max as the overflow bucket's edge so
  // the shared interpolation helper covers all counts_.size() buckets.
  std::vector<double> bounds = bounds_;
  double mx = max();
  bounds.push_back(std::max(mx, bounds_.back()));
  double v;
  if (shards_.empty()) {
    v = PercentileFromBuckets(counts_, bounds, p);
  } else {
    std::vector<uint64_t> merged = counts_;
    for (const Shard& s : shards_) {
      if (s.counts.empty()) continue;
      for (size_t i = 0; i < merged.size(); ++i) merged[i] += s.counts[i];
    }
    v = PercentileFromBuckets(merged, bounds, p);
  }
  return std::clamp(v, min(), mx);
}

void SimHistogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
  for (Shard& s : shards_) {
    std::fill(s.counts.begin(), s.counts.end(), 0);
    s.count = 0;
    s.sum = s.min = s.max = 0;
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(lookup_mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter())).first;
    if (shard_slots_ > 0) it->second->EnableSharding(shard_slots_);
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(lookup_mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return *it->second;
}

SimHistogram& MetricsRegistry::histogram(const std::string& name,
                                         HistogramOptions opts) {
  std::lock_guard<std::mutex> lock(lookup_mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      std::unique_ptr<SimHistogram>(new SimHistogram(opts)))
             .first;
    if (shard_slots_ > 0) it->second->EnableSharding(shard_slots_);
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const SimHistogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::EnableSharding(int slots) {
  MIND_CHECK_GT(slots, 1);
  shard_slots_ = slots;
  for (auto& [name, c] : counters_) c->EnableSharding(slots);
  for (auto& [name, h] : histograms_) h->EnableSharding(slots);
}

}  // namespace telemetry
}  // namespace mind
