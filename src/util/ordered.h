// Deterministic-iteration helpers for unordered containers.
//
// Iterating a std::unordered_map/set directly is fine when the loop's
// effect is order-independent (building a count, taking a max). It is a
// determinism hazard when the loop emits messages, schedules events, or
// otherwise leaks iteration order into simulation behavior: the order
// depends on the hash function, bucket count, and insertion history, and
// differs across standard libraries. The analyzer's unordered-emit rule
// (tools/analyze) flags such loops; the fix is to iterate over
// SortedKeys(map) instead.
#ifndef MIND_UTIL_ORDERED_H_
#define MIND_UTIL_ORDERED_H_

#include <algorithm>
#include <vector>

namespace mind {

/// Returns the keys of an associative container, sorted ascending.
/// Copies keys by value; intended for small per-node maps (peers, watches).
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& kv : m) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Returns the elements of a set-like container, sorted ascending.
template <typename Set>
std::vector<typename Set::value_type> SortedValues(const Set& s) {
  std::vector<typename Set::value_type> vals(s.begin(), s.end());
  std::sort(vals.begin(), vals.end());
  return vals;
}

}  // namespace mind

#endif  // MIND_UTIL_ORDERED_H_
