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
/// inverse-CDF table method with an indexed search: a guide table of 4n
/// entries points each u-bucket [j/4n, (j+1)/4n) at its first candidate rank,
/// so a sample walks O(1) CDF entries on average instead of binary-searching
/// (O(n) setup). Used for popularity of prefixes/ports in traffic generation.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  /// Rank in [0, n); rank 0 is the most popular. Consumes exactly one
  /// UniformDouble: `Rank(rng->UniformDouble())`.
  size_t Sample(Rng* rng) const { return Rank(rng->UniformDouble()); }

  /// The inverse CDF at u in [0, 1): the first rank whose cumulative mass is
  /// >= u (std::lower_bound over the CDF), clamped to n - 1.
  size_t Rank(double u) const;

  /// Probability mass of a given rank.
  double pmf(size_t rank) const;

  size_t n() const { return cdf_.size(); }

 private:
  // The guide-table slot for x in [0, 1] with k slots. Monotone in x,
  // rounding included, which is all Rank relies on.
  static size_t GuideBucket(double x, size_t k) {
    return std::min(static_cast<size_t>(x * static_cast<double>(k)), k - 1);
  }

  std::vector<double> cdf_;
  // guide_[j] = number of CDF entries whose guide bucket is below j; an x in
  // [0, 1] falls in bucket min(floor(x * 4n), 4n - 1).
  std::vector<uint32_t> guide_;
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

inline size_t ZipfSampler::Rank(double u) const {
  // guide_ counts the CDF entries in buckets below u's. GuideBucket is
  // monotone, so all of those entries are < u, and the walk forward from
  // there stops exactly at lower_bound's rank.
  size_t i = guide_[GuideBucket(u, guide_.size())];
  while (i < cdf_.size() && cdf_[i] < u) ++i;
  return std::min(i, cdf_.size() - 1);
}

/// Piecewise-linear diurnal modulation curve: value in [floor, 1] as a
/// function of seconds-of-day, peaking mid-day. Models the day/night traffic
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
