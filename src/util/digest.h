// FNV-1a 64-bit streaming digest for deterministic replay verification.
//
// Structures expose DigestInto(Fnv64*) (or a StateDigest() convenience)
// that folds their logical state — node codes, stored tuples, pending
// events — into the stream. Two simulation runs are considered replays of
// each other iff their final digests are bit-identical. The digest covers
// *logical* state only: no pointers, no capacities, no telemetry counters,
// so a run whose metrics registry is Reset() mid-run digests the same as one
// whose registry is not.
//
// For containers whose in-memory order is not canonical (e.g. TupleStore
// rows between lazy sorts), use the order-independent pattern: hash each
// element into its own Fnv64 and combine the per-element digests with
// OrderIndependentAccumulator, whose commutative sum makes the result
// independent of iteration order.
#ifndef MIND_UTIL_DIGEST_H_
#define MIND_UTIL_DIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace mind {

/// Streaming FNV-1a 64-bit hash.
class Fnv64 {
 public:
  static constexpr uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  void MixByte(uint8_t b) { h_ = (h_ ^ b) * kPrime; }

  /// Mixes a 64-bit value, little-endian byte order.
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  /// Mixes a length-prefixed byte string (length prefix keeps "ab","c"
  /// distinct from "a","bc").
  void Mix(std::string_view s) {
    Mix(static_cast<uint64_t>(s.size()));
    for (char c : s) MixByte(static_cast<uint8_t>(c));
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kOffsetBasis;
};

/// Combines per-element digests commutatively (wrapping sum), so the result
/// does not depend on the order elements are visited.
class OrderIndependentAccumulator {
 public:
  void Add(uint64_t element_digest) {
    sum_ += element_digest;
    ++count_;
  }

  /// Folds the accumulated multiset digest into `out` (count then sum).
  void DigestInto(Fnv64* out) const {
    out->Mix(count_);
    out->Mix(sum_);
  }

 private:
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
};

/// Renders a digest as fixed-width lowercase hex ("00112233aabbccdd").
std::string DigestToHex(uint64_t digest);

}  // namespace mind

#endif  // MIND_UTIL_DIGEST_H_
