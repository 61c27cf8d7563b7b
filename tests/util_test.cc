#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/bitcode.h"
#include "util/ip.h"
#include "util/key_set.h"
#include "util/rng.h"
#include "util/status.h"

namespace mind {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("index foo");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "index foo");
  EXPECT_EQ(s.ToString(), "NotFound: index foo");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Aborted("boom");
  Status t = s;
  EXPECT_TRUE(t.IsAborted());
  EXPECT_EQ(t.message(), "boom");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  MIND_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_TRUE(UsesReturnNotOk(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  MIND_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  Result<int> e = ParsePositive(0);
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsOutOfRange());
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubleIt(21).value(), 42);
  EXPECT_TRUE(DoubleIt(-3).status().IsOutOfRange());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

// ---------------------------------------------------------------- BitCode

TEST(BitCodeTest, EmptyCode) {
  BitCode c;
  EXPECT_EQ(c.length(), 0);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.ToString(), "(empty)");
}

TEST(BitCodeTest, PushPopRoundTrip) {
  BitCode c;
  c.PushBack(1);
  c.PushBack(0);
  c.PushBack(1);
  EXPECT_EQ(c.ToString(), "101");
  EXPECT_EQ(c.bit(0), 1);
  EXPECT_EQ(c.bit(1), 0);
  EXPECT_EQ(c.bit(2), 1);
  c.PopBack();
  EXPECT_EQ(c.ToString(), "10");
}

TEST(BitCodeTest, FromStringAndBits) {
  BitCode a = BitCode::FromString("0110");
  BitCode b = BitCode::FromBits(0b0110, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.bits(), 0b0110u);
}

TEST(BitCodeTest, FromBitsMasksHighBits) {
  BitCode c = BitCode::FromBits(0xFF, 4);
  EXPECT_EQ(c.ToString(), "1111");
  EXPECT_EQ(c.bits(), 0xFu);
}

TEST(BitCodeTest, CommonPrefixLen) {
  BitCode a = BitCode::FromString("0101");
  EXPECT_EQ(a.CommonPrefixLen(BitCode::FromString("0101")), 4);
  EXPECT_EQ(a.CommonPrefixLen(BitCode::FromString("0100")), 3);
  EXPECT_EQ(a.CommonPrefixLen(BitCode::FromString("01")), 2);
  EXPECT_EQ(a.CommonPrefixLen(BitCode::FromString("1101")), 0);
  EXPECT_EQ(a.CommonPrefixLen(BitCode()), 0);
}

TEST(BitCodeTest, IsPrefixOf) {
  BitCode root;
  BitCode a = BitCode::FromString("01");
  BitCode b = BitCode::FromString("0110");
  EXPECT_TRUE(root.IsPrefixOf(a));
  EXPECT_TRUE(a.IsPrefixOf(b));
  EXPECT_TRUE(a.IsPrefixOf(a));
  EXPECT_FALSE(b.IsPrefixOf(a));
  EXPECT_FALSE(BitCode::FromString("00").IsPrefixOf(b));
}

TEST(BitCodeTest, SiblingParentChild) {
  BitCode a = BitCode::FromString("0110");
  EXPECT_EQ(a.Sibling().ToString(), "0111");
  EXPECT_EQ(a.Parent().ToString(), "011");
  EXPECT_EQ(a.Child(1).ToString(), "01101");
  EXPECT_EQ(a.WithBitFlipped(0).ToString(), "1110");
  EXPECT_EQ(a.Prefix(2).ToString(), "01");
}

TEST(BitCodeTest, OrderingIsTreePreorder) {
  // A prefix sorts before its extensions; otherwise first differing bit.
  std::vector<BitCode> codes = {
      BitCode::FromString("1"),    BitCode::FromString("01"),
      BitCode::FromString("0"),    BitCode::FromString("00"),
      BitCode::FromString("011"),  BitCode(),
  };
  std::sort(codes.begin(), codes.end());
  std::vector<std::string> got;
  for (const auto& c : codes) got.push_back(c.ToString());
  EXPECT_EQ(got, (std::vector<std::string>{"(empty)", "0", "00", "01", "011", "1"}));
}

TEST(BitCodeTest, MaxLength64) {
  BitCode c;
  for (int i = 0; i < 64; ++i) c.PushBack(i % 2);
  EXPECT_EQ(c.length(), 64);
  EXPECT_EQ(c.CommonPrefixLen(c), 64);
  EXPECT_TRUE(c.IsPrefixOf(c));
}

TEST(BitCodeTest, HashDistinguishesLengths) {
  // "0" vs "00" vs empty must hash differently with high probability; check
  // they are at least unequal and usable in a hash set.
  std::unordered_set<BitCode, BitCode::Hash> set;
  set.insert(BitCode());
  set.insert(BitCode::FromString("0"));
  set.insert(BitCode::FromString("00"));
  set.insert(BitCode::FromString("000"));
  EXPECT_EQ(set.size(), 4u);
}

// Property sweep: random codes round-trip through string and obey
// prefix/sibling algebra.
class BitCodePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitCodePropertyTest, RandomCodesRoundTripAndAlgebra) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    int len = 1 + static_cast<int>(rng.Uniform(64));
    BitCode c = BitCode::FromBits(rng.Next(), len);
    EXPECT_EQ(BitCode::FromString(c.ToString()), c);
    EXPECT_EQ(c.CommonPrefixLen(c), len);
    if (len >= 1) {
      EXPECT_EQ(c.Sibling().Sibling(), c);
      EXPECT_EQ(c.Parent().length(), len - 1);
      EXPECT_TRUE(c.Parent().IsPrefixOf(c));
      EXPECT_EQ(c.CommonPrefixLen(c.Sibling()), len - 1);
    }
    int flip = static_cast<int>(rng.Uniform(static_cast<uint64_t>(len)));
    EXPECT_EQ(c.CommonPrefixLen(c.WithBitFlipped(flip)), flip);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitCodePropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ParetoIsHeavyTailedAboveScale) {
  Rng rng(4);
  int above10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Pareto(1.0, 1.2);
    ASSERT_GE(v, 1.0);
    if (v > 10.0) ++above10;
  }
  // P(X > 10) = 10^-1.2 ~ 0.063.
  EXPECT_NEAR(static_cast<double>(above10) / n, 0.063, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ForkIndependentOfConsumption) {
  Rng a(9), b(9);
  (void)a.Next();  // consume from a only
  EXPECT_EQ(a.Fork(5).Next(), b.Fork(5).Next());
  EXPECT_NE(a.Fork(5).Next(), a.Fork(6).Next());
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfSampler zipf(100, 1.0);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(50));
  double total = 0;
  for (size_t i = 0; i < zipf.n(); ++i) total += zipf.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(50, 1.1);
  Rng rng(13);
  std::vector<int> counts(50, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.pmf(0), 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, zipf.pmf(1), 0.02);
}

// Rank(u) must be exactly std::lower_bound's rank (clamped to n - 1) for every
// u, so the direct table maps RNG draws exactly as a binary search would.
// Probes sit on and next to each CDF entry, each direct-table bucket edge
// b / 2^14 (where an off-by-one bucket, entry or split span would show) and
// each edge j / 4n of a finer or coarser grid. RankOfDraw must agree with
// Rank on the draws just below and at each bucket edge. n = 2^15 is the
// largest n whose ranks fit a table entry; one more is refused.
TEST(ZipfTest, RankMatchesLowerBound) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{15}, size_t{272},
                   size_t{4096}, size_t{1} << 15}) {
    for (double s : {0.5, 0.9, 1.2, 2.0}) {
      ZipfSampler zipf(n, s);
      // The sampler's CDF, rebuilt with the same operations in the same
      // order, so the reference search sees bit-identical entries.
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
      }
      for (auto& c : cdf) c /= sum;
      std::vector<double> probes = {0.0, 1.0 - 0x1.0p-53};
      auto around = [&probes](double x) {
        for (double v : {std::nextafter(x, 0.0), x, std::nextafter(x, 1.0)}) {
          if (v >= 0.0 && v < 1.0) probes.push_back(v);
        }
      };
      for (size_t i = 0; i < n; ++i) around(cdf[i]);
      const size_t k = 4 * n;
      for (size_t j = 0; j <= k; ++j) {
        around(static_cast<double>(j) / static_cast<double>(k));
      }
      for (size_t b = 0; b <= ZipfSampler::kBuckets; ++b) {
        around(std::ldexp(static_cast<double>(b), -ZipfSampler::kDirectBits));
      }
      for (double u : probes) {
        size_t want = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        want = std::min(want, n - 1);
        ASSERT_EQ(zipf.Rank(u), want) << "n=" << n << " s=" << s << " u=" << u;
      }
      for (uint64_t b = 0; b < ZipfSampler::kBuckets; ++b) {
        const uint64_t edge = b << (64 - ZipfSampler::kDirectBits);
        for (uint64_t x : {edge, edge - 1, edge + 2047, edge + 2048}) {
          const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
          ASSERT_EQ(ZipfSampler::Bucket(x), static_cast<size_t>(
                                                 u * ZipfSampler::kBuckets))
              << "x=" << x;
          ASSERT_EQ(zipf.RankOfDraw(x), zipf.Rank(u))
              << "n=" << n << " s=" << s << " x=" << x;
        }
      }
    }
  }
  EXPECT_DEATH(ZipfSampler((size_t{1} << 15) + 1, 0.9),
               "do not fit a direct-table entry");
}

// The per-draw primitives as they were defined out of line in rng.cc before
// they moved into rng.h, kept verbatim (Uniform without its power-of-two
// path). The inlined versions must reproduce them draw for draw: moving them
// changed no stream.
class OutOfLineRng {
 public:
  explicit OutOfLineRng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(&sm);
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  uint64_t Uniform(uint64_t n) {
    uint64_t threshold = (0 - n) % n;
    for (;;) {
      uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  bool Bernoulli(double p) { return UniformDouble() < p; }

 private:
  static uint64_t SplitMix64(uint64_t* x) {
    uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

class OutOfLineZipf {
 public:
  OutOfLineZipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    guide_.resize(4 * n);
    size_t i = 0;
    for (size_t j = 0; j < guide_.size(); ++j) {
      while (i < n && GuideBucket(cdf_[i], guide_.size()) < j) ++i;
      guide_[j] = static_cast<uint32_t>(i);
    }
  }
  size_t Rank(double u) const {
    size_t i = guide_[GuideBucket(u, guide_.size())];
    while (i < cdf_.size() && cdf_[i] < u) ++i;
    return std::min(i, cdf_.size() - 1);
  }

 private:
  static size_t GuideBucket(double x, size_t k) {
    return std::min(static_cast<size_t>(x * static_cast<double>(k)), k - 1);
  }
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
};

// Interleaves Uniform over bounds that take each path (n = 1, powers of two
// up to 2^63, bounds that reject often such as 2^63 + 1 and 2^64 - 1, the
// trace generator's 272 and 64 512), Zipf samples and Bernoulli draws in one
// stream per seed, so a single diverging draw desynchronizes every later one.
TEST(RngInlineTest, DrawsMatchOutOfLineDefinitions) {
  std::vector<uint64_t> bounds = {1, 272, 64512, (uint64_t{1} << 63) + 1,
                                  UINT64_MAX, 3, 1000003};
  for (int k = 1; k < 64; ++k) bounds.push_back(uint64_t{1} << k);
  const std::pair<size_t, double> zipfs[] = {
      {1, 0.9}, {2, 1.0}, {15, 1.2}, {272, 0.9}, {4096, 0.5}};
  std::vector<ZipfSampler> inlined;
  std::vector<OutOfLineZipf> reference;
  for (const auto& [n, s] : zipfs) {
    inlined.emplace_back(n, s);
    reference.emplace_back(n, s);
  }
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    OutOfLineRng ref(seed * 0x9e3779b97f4a7c15ull + 1);
    for (size_t i = 0; i < 4 * bounds.size(); ++i) {
      const uint64_t n = bounds[(i * 7 + seed) % bounds.size()];
      ASSERT_EQ(rng.Uniform(n), ref.Uniform(n)) << "seed " << seed << " n " << n;
      const size_t z = (i + seed) % inlined.size();
      ASSERT_EQ(inlined[z].Sample(&rng), reference[z].Rank(ref.UniformDouble()))
          << "seed " << seed << " zipf n " << zipfs[z].first;
      ASSERT_EQ(rng.Bernoulli(0.3), ref.Bernoulli(0.3)) << "seed " << seed;
    }
    ASSERT_EQ(rng.Next(), ref.Next()) << "seed " << seed;
  }
}

TEST(DiurnalCurveTest, PeakAndFloor) {
  DiurnalCurve curve(0.4, 14 * 3600.0);
  EXPECT_NEAR(curve.At(14 * 3600.0), 1.0, 1e-9);
  EXPECT_NEAR(curve.At(2 * 3600.0), 0.4, 1e-9);  // antipode of 14:00
  // Wraps at midnight.
  EXPECT_NEAR(curve.At(0.0), curve.At(86400.0), 1e-9);
  for (double t = 0; t < 86400; t += 3600) {
    double v = curve.At(t);
    EXPECT_GE(v, 0.4 - 1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

// ---------------------------------------------------------------- IP

TEST(IpTest, ToStringRoundTrip) {
  EXPECT_EQ(IpToString(0xC0A82001), "192.168.32.1");
  auto r = ParseIp("192.168.32.1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0xC0A82001u);
}

TEST(IpTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseIp("300.1.1.1").ok());
  EXPECT_FALSE(ParseIp("1.2.3").ok());
  EXPECT_FALSE(ParseIp("a.b.c.d").ok());
  EXPECT_FALSE(ParseIp("1.2.3.4x").ok());
}

TEST(IpPrefixTest, ContainsAndBounds) {
  auto p = IpPrefix::Parse("192.168.32.0/20");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(), "192.168.32.0/20");
  EXPECT_EQ(p->Size(), 4096u);
  EXPECT_TRUE(p->Contains(ParseIp("192.168.32.1").value()));
  EXPECT_TRUE(p->Contains(ParseIp("192.168.47.255").value()));
  EXPECT_FALSE(p->Contains(ParseIp("192.168.48.0").value()));
  EXPECT_EQ(p->First(), ParseIp("192.168.32.0").value());
  EXPECT_EQ(p->Last(), ParseIp("192.168.47.255").value());
}

TEST(IpPrefixTest, HostBitsZeroed) {
  IpPrefix p(ParseIp("10.1.2.3").value(), 8);
  EXPECT_EQ(p.ToString(), "10.0.0.0/8");
}

TEST(IpPrefixTest, NestingContains) {
  IpPrefix outer(ParseIp("10.0.0.0").value(), 8);
  IpPrefix inner(ParseIp("10.20.0.0").value(), 16);
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
}

TEST(IpPrefixTest, SlashZeroAndSlash32) {
  IpPrefix all(0, 0);
  EXPECT_TRUE(all.Contains(0xFFFFFFFFu));
  EXPECT_EQ(all.First(), 0u);
  EXPECT_EQ(all.Last(), 0xFFFFFFFFu);
  IpPrefix host(ParseIp("1.2.3.4").value(), 32);
  EXPECT_TRUE(host.Contains(ParseIp("1.2.3.4").value()));
  EXPECT_FALSE(host.Contains(ParseIp("1.2.3.5").value()));
  EXPECT_EQ(host.First(), host.Last());
}

TEST(IpPrefixTest, ParseErrors) {
  EXPECT_FALSE(IpPrefix::Parse("1.2.3.4").ok());
  EXPECT_FALSE(IpPrefix::Parse("1.2.3.4/33").ok());
  EXPECT_FALSE(IpPrefix::Parse("1.2.3.4/-1").ok());
}

// ---------------------------------------------------------------- KeySet

// Membership agrees with std::unordered_set across rehashes, for the zero
// key (held out of the table) and for keys that share low bits.
TEST(KeySetTest, AgreesWithUnorderedSet) {
  Rng rng(5);
  KeySet set;
  std::unordered_set<uint64_t> oracle;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Uniform(3000);
    if (rng.Bernoulli(0.3)) key <<= 40;  // TupleKey-shaped: origin bits only
    EXPECT_EQ(set.Insert(key), oracle.insert(key).second) << key;
  }
  EXPECT_EQ(set.size(), oracle.size());
  EXPECT_FALSE(set.Insert(0));  // 0 is among the keys above
}

}  // namespace
}  // namespace mind
