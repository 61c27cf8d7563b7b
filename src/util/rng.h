// Seedable random number generation and the heavy-tailed samplers used by the
// synthetic backbone-traffic generator.
//
// All randomness in the repository flows through Rng instances so that every
// experiment is reproducible bit-for-bit from its seed.
#ifndef MIND_UTIL_RNG_H_
#define MIND_UTIL_RNG_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace mind {

/// xoshiro256** PRNG seeded via SplitMix64. Not cryptographic; fast and
/// statistically solid for simulation. The per-draw primitives (Next,
/// Uniform, UniformDouble, Bernoulli) are defined inline below: the trace
/// generator makes ~45 M of them to replay seven minutes of fig21's trace.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed);

  /// Next raw 64 random bits.
  uint64_t Next();

  /// Uniform integer in [0, n); n must be > 0. Consumes one Next() per
  /// rejection round; a power-of-two n never rejects.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  uint64_t UniformRange(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// True with probability p.
  bool Bernoulli(double p);

  /// Exponential with rate lambda (mean 1/lambda).
  double Exponential(double lambda);

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed flow sizes).
  double Pareto(double x_m, double alpha);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation beyond).
  uint64_t Poisson(double mean);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal with parameters of the underlying normal.
  double LogNormal(double mu, double sigma);

  /// A new Rng whose stream is a deterministic function of this one's seed
  /// and `stream_id`; use to give independent generators to sub-components.
  Rng Fork(uint64_t stream_id) const;

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
  uint64_t seed_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Counter-based (stateless) random draws, philox-style: each value is a pure
/// function of (seed, stream, counter) rather than of how many draws other
/// components have made. Used for per-directed-link jitter streams so the
/// delivery path is deterministic under any event interleaving — sequential or
/// sharded-parallel — as long as each link counts its own sends.
uint64_t CounterMix(uint64_t seed, uint64_t stream, uint64_t counter);

/// Uniform double in (0, 1] from a counter draw (never 0, safe for log()).
double CounterUniformDouble(uint64_t seed, uint64_t stream, uint64_t counter);

/// Log-normal sample from two lanes of the (seed, stream, counter) draw via
/// Box-Muller; `mu`/`sigma` parameterize the underlying normal.
double CounterLogNormal(uint64_t seed, uint64_t stream, uint64_t counter,
                        double mu, double sigma);

/// Zipf(n, s) sampler over ranks {0, .., n-1} with exponent s, using the
/// inverse-CDF table method with a direct table: the top 14 bits of a draw
/// name one of 2^14 equal u-buckets, and a bucket that every u in it maps to
/// one rank yields that rank from one 2-byte load. A bucket that a CDF entry
/// splits falls back to a binary search over its own span of the CDF. Setup
/// is O(n + 2^14 log n); n <= 2^15. Used for popularity of prefixes/ports in
/// traffic generation.
class ZipfSampler {
 public:
  /// Bits of a raw draw that index the direct table.
  static constexpr int kDirectBits = 14;
  static constexpr size_t kBuckets = size_t{1} << kDirectBits;
  /// BucketRank of a bucket that a CDF entry splits.
  static constexpr size_t kSplit = SIZE_MAX;

  ZipfSampler(size_t n, double s);

  /// Rank in [0, n); rank 0 is the most popular. Consumes exactly one
  /// Next(), mapped as `Rank(rng->UniformDouble())` would map it.
  size_t Sample(Rng* rng) const { return RankOfDraw(rng->Next()); }

  /// The rank of raw draw x: Rank(u) for the UniformDouble
  /// u = (x >> 11) * 2^-53 that x gives.
  size_t RankOfDraw(uint64_t x) const;

  /// The direct-table bucket of raw draw x. Its u lies in
  /// [b, b + 1) * 2^-14 for b = floor(u * 2^14), which is exactly x >> 50.
  static size_t Bucket(uint64_t x) { return x >> (64 - kDirectBits); }

  /// The rank every u in bucket b maps to, or kSplit when a CDF entry splits
  /// the bucket.
  size_t BucketRank(size_t b) const {
    const uint16_t e = direct_[b];
    return (e & kSplitBit) != 0 ? kSplit : e;
  }

  /// The inverse CDF at u: the first rank whose cumulative mass is >= u
  /// (std::lower_bound over the CDF), clamped to n - 1.
  size_t Rank(double u) const;

  /// Probability mass of a given rank.
  double pmf(size_t rank) const;

  size_t n() const { return cdf_.size(); }

 private:
  static constexpr uint16_t kSplitBit = 0x8000;

  // lower_bound over the whole CDF, clamped to n - 1.
  size_t FullRank(double u) const {
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

  // The rank of u in bucket b: the bucket's entry, or for a split bucket
  // lower_bound over the bucket's span of the CDF.
  size_t BucketRankOf(size_t b, double u) const {
    const uint16_t e = direct_[b];
    if ((e & kSplitBit) == 0) return e;
    const size_t lo = e & ~kSplitBit;
    const size_t hi = direct_[b + 1] & ~kSplitBit;
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin() + lo, cdf_.begin() + hi, u) -
        cdf_.begin());
  }

  std::vector<double> cdf_;
  // direct_[b] for b in [0, 2^14] holds F(b) = min(lower_bound(cdf_,
  // b * 2^-14), n - 1), the rank at the bucket's low edge, and sets
  // kSplitBit when a later rank is reached inside the bucket. Rank is
  // monotone, so the ranks of bucket b lie in [F(b), F(b + 1)]: that is the
  // span BucketRankOf searches. direct_[2^14] only ends the last span.
  std::vector<uint16_t> direct_;
};

inline uint64_t Rng::Next() {
  const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

inline uint64_t Rng::Uniform(uint64_t n) {
  MIND_CHECK_GT(n, 0u);
  // For n = 2^k the rejection threshold (0 - n) % n is 0 and r % n is
  // r & (n - 1): the same draw without either division.
  if ((n & (n - 1)) == 0) return Next() & (n - 1);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

inline double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

inline size_t ZipfSampler::RankOfDraw(uint64_t x) const {
  return BucketRankOf(Bucket(x), static_cast<double>(x >> 11) * 0x1.0p-53);
}

inline size_t ZipfSampler::Rank(double u) const {
  if (!(u >= 0.0 && u < 1.0)) return FullRank(u);
  // Scaling by 2^14 is exact, so the truncation is floor(u * 2^14).
  return BucketRankOf(static_cast<size_t>(u * static_cast<double>(kBuckets)),
                      u);
}

/// Raised-cosine diurnal modulation curve: value in [floor, 1] as a function
/// of seconds-of-day, floor + (1 - floor) * 0.5 * (1 + cos φ) with φ the
/// phase from the peak, so it peaks mid-day. Models the day/night traffic
/// cycle of backbone links.
class DiurnalCurve {
 public:
  /// `floor` is the night-time fraction of peak rate; `peak_second` is when
  /// the curve peaks (default 14:00).
  explicit DiurnalCurve(double floor = 0.35, double peak_second = 14 * 3600.0);

  /// Multiplier in [floor, 1] for time-of-day `sec` (seconds, wraps at 86400).
  double At(double sec) const;

 private:
  double floor_;
  double peak_second_;
};

}  // namespace mind

#endif  // MIND_UTIL_RNG_H_
