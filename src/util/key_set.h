// A set of 64-bit keys for de-duplication: open-addressed, power-of-two
// capacity, linear probing, no erase. One flat array instead of one heap
// node per key, so inserting n keys costs O(log n) allocations.
#ifndef MIND_UTIL_KEY_SET_H_
#define MIND_UTIL_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mind {

class KeySet {
 public:
  /// Adds `key`; true if it was not in the set yet.
  bool Insert(uint64_t key) {
    if (key == 0) {
      // 0 marks an empty slot; the zero key is held out of the table.
      const bool added = !has_zero_;
      has_zero_ = true;
      size_ += added ? 1 : 0;
      return added;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) Rehash();
    size_t i = Slot(key);
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  size_t Slot(uint64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void Rehash() {
    std::vector<uint64_t> old;
    old.swap(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, 0);
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (uint64_t key : old) {
      if (key == 0) continue;
      size_t i = Slot(key);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;
  int shift_ = 64;
  size_t size_ = 0;
  bool has_zero_ = false;
};

}  // namespace mind

#endif  // MIND_UTIL_KEY_SET_H_
