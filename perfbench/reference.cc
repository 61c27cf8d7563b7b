#include "reference.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

// The mix follows the simulator's: a binary-heap event queue, hash-map
// lookups, random reads and writes over a working set larger than the
// last-level cache, binary searches over a sorted table that fits in the
// mid-level cache (as in the traffic generator's samplers), short-lived
// small allocations and sequential scans.
constexpr size_t kTableWords = size_t{1} << 22;  // 32 MiB
constexpr size_t kScanWords = size_t{1} << 20;   // 8 MiB
constexpr size_t kScanLen = 2048;
constexpr size_t kSortedWords = size_t{1} << 16;  // 512 KiB of doubles
constexpr uint32_t kHeapSize = 1 << 14;
constexpr uint64_t kMapKeys = 1 << 16;
constexpr uint32_t kSteps = 1 << 19;

uint64_t Next(uint64_t* x) {  // xorshift64*
  *x ^= *x >> 12;
  *x ^= *x << 25;
  *x ^= *x >> 27;
  return *x * 2685821657736338717ull;
}

}  // namespace

Reference::Reference()
    : table_(kTableWords), scan_(kScanWords), sorted_(kSortedWords) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& w : table_) w = Next(&x);
  for (uint64_t& w : scan_) w = Next(&x);
  for (size_t i = 0; i < kSortedWords; ++i) {
    sorted_[i] = std::sqrt(static_cast<double>(i + 1) / kSortedWords);
  }
}

uint64_t Reference::Run() {
  // Run() writes into the table; work on a fresh copy of its start state
  // would cost a 32 MiB copy, so instead every call restores what it wrote.
  std::vector<std::pair<size_t, uint64_t>> undo;
  undo.reserve(kSteps);
  uint64_t x = 0x2545f4914f6cdd1dull;
  uint64_t sum = 0;
  std::priority_queue<std::pair<uint64_t, uint32_t>,
                      std::vector<std::pair<uint64_t, uint32_t>>, std::greater<>>
      heap;
  for (uint32_t i = 0; i < kHeapSize; ++i) heap.push({Next(&x) >> 20, i});
  std::unordered_map<uint64_t, uint64_t> map;
  map.reserve(kMapKeys);
  for (uint32_t step = 0; step < kSteps; ++step) {
    const auto [t, id] = heap.top();
    heap.pop();
    heap.push({t + (Next(&x) >> 40), id});
    const uint64_t r = Next(&x);
    // Random read-modify-write over the large table.
    const size_t slot = r % kTableWords;
    undo.push_back({slot, table_[slot]});
    uint64_t& w = table_[slot];
    w = w * 6364136223846793005ull + t;
    sum += w;
    // A sampler-style lookup: the first entry not below a uniform draw.
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    sum += static_cast<uint64_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), u) - sorted_.begin());
    // Keyed state: a hash map that grows, is read and shrinks.
    const uint64_t key = r % kMapKeys;
    auto it = map.find(key);
    if (it == map.end()) {
      map.emplace(key, w);
    } else if ((r >> 32) % 4 == 0) {
      map.erase(it);
    } else {
      it->second += id;
    }
    // A small allocation that lives for one step.
    if (step % 8 == 0) {
      auto buf = std::make_unique<uint64_t[]>(4 + r % 28);
      buf[0] = sum;
      sum ^= buf[0] >> 3;
    }
    // A short sequential scan with a data-dependent filter.
    if (step % 64 == 0) {
      const size_t from = (r >> 16) % (kScanWords - kScanLen);
      for (size_t i = from; i < from + kScanLen; ++i) {
        sum += scan_[i] < t ? 1 : scan_[i] & 3;
      }
    }
  }
  for (auto u = undo.rbegin(); u != undo.rend(); ++u) table_[u->first] = u->second;
  return sum + map.size();
}

}  // namespace perfbench
