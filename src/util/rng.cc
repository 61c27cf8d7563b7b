#include "util/rng.h"

#include <bit>
#include <cmath>

#include "util/logging.h"

namespace mind {

namespace {
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::UniformRange(uint64_t lo, uint64_t hi) {
  MIND_CHECK_LE(lo, hi);
  uint64_t span = hi - lo;
  if (span == UINT64_MAX) return Next();
  return lo + Uniform(span + 1);
}

double Rng::Exponential(double lambda) {
  MIND_CHECK_GT(lambda, 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

double Rng::Pareto(double x_m, double alpha) {
  MIND_CHECK_GT(x_m, 0.0);
  MIND_CHECK_GT(alpha, 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u == 0.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

uint64_t Rng::Poisson(double mean) {
  MIND_CHECK_GE(mean, 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    double l = std::exp(-mean);
    uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= UniformDouble();
    } while (p > l);
    return k - 1;
  }
  double v = Normal(mean, std::sqrt(mean));
  return v <= 0 ? 0 : static_cast<uint64_t>(v + 0.5);
}

double Rng::Normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1, u2;
  do {
    u1 = UniformDouble();
  } while (u1 == 0.0);
  u2 = UniformDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

uint64_t CounterMix(uint64_t seed, uint64_t stream, uint64_t counter) {
  // Three SplitMix64 finalization rounds over a seed/stream/counter blend.
  // Not cryptographic; the goal is full avalanche so that adjacent counters
  // and adjacent streams are statistically independent.
  uint64_t x = seed ^ std::rotl(stream, 24) ^ 0x9e3779b97f4a7c15ull;
  x += counter * 0xd1342543de82ef95ull;
  for (int round = 0; round < 3; ++round) {
    x ^= stream + 0x2545f4914f6cdd1dull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
  }
  return x;
}

double CounterUniformDouble(uint64_t seed, uint64_t stream, uint64_t counter) {
  // 53-bit mantissa, shifted into (0, 1] so log() is always finite.
  uint64_t bits = CounterMix(seed, stream, counter) >> 11;
  return (static_cast<double>(bits) + 1.0) * 0x1.0p-53;
}

double CounterLogNormal(uint64_t seed, uint64_t stream, uint64_t counter,
                        double mu, double sigma) {
  // Two lanes of the same (stream, counter) draw feed Box-Muller; the cos
  // branch is used and the sin branch discarded (no cross-call cache, so the
  // value cannot depend on who drew before us).
  double u1 = CounterUniformDouble(seed, stream, counter * 2);
  double u2 = CounterUniformDouble(seed, stream, counter * 2 + 1);
  double normal = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return std::exp(mu + sigma * normal);
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Derive a child seed from the parent seed and stream id; independent of
  // how much of the parent stream has been consumed.
  uint64_t x = seed_ ^ (stream_id * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull);
  return Rng(SplitMix64(&x));
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  MIND_CHECK_GT(n, 0u);
  // Every rank and span bound, n - 1 at most, must fit beside kSplitBit.
  MIND_CHECK_LE(n - 1, size_t{kSplitBit - 1})
      << "ZipfSampler: " << n << " ranks do not fit a direct-table entry";
  cdf_.resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;

  direct_.resize(kBuckets + 1);
  for (size_t b = 0; b <= kBuckets; ++b) {
    const double edge = std::ldexp(static_cast<double>(b), -kDirectBits);
    const double next = std::ldexp(static_cast<double>(b + 1), -kDirectBits);
    const size_t first = FullRank(edge);
    direct_[b] = static_cast<uint16_t>(first);
    // The last u in the bucket is the double just below the next edge.
    if (b < kBuckets && FullRank(std::nextafter(next, 0.0)) != first) {
      direct_[b] |= kSplitBit;
    }
  }
}

double ZipfSampler::pmf(size_t rank) const {
  MIND_CHECK_LT(rank, cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

DiurnalCurve::DiurnalCurve(double floor, double peak_second)
    : floor_(floor), peak_second_(peak_second) {
  MIND_CHECK(floor > 0.0 && floor <= 1.0);
}

double DiurnalCurve::At(double sec) const {
  double t = std::fmod(sec, 86400.0);
  if (t < 0) t += 86400.0;
  // Raised cosine centred on the peak: 1 at peak, floor at the antipode.
  double phase = 2.0 * M_PI * (t - peak_second_) / 86400.0;
  double w = 0.5 * (1.0 + std::cos(phase));  // 1 at peak, 0 at trough
  return floor_ + (1.0 - floor_) * w;
}

}  // namespace mind
