#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "space/histogram.h"
#include "space/mismatch.h"
#include "traffic/aggregator.h"
#include "traffic/anomaly_injector.h"
#include "traffic/flow_generator.h"
#include "traffic/indices.h"
#include "traffic/topology.h"
#include "traffic/trace_io.h"

namespace mind {
namespace {

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, SizesMatchPaper) {
  EXPECT_EQ(Topology::Abilene().size(), 11u);
  EXPECT_EQ(Topology::Geant().size(), 23u);
  EXPECT_EQ(Topology::AbileneGeant().size(), 34u);
}

TEST(TopologyTest, FindRouterAndPositions) {
  Topology t = Topology::Abilene();
  int chin = t.FindRouter("CHIN");
  ASSERT_GE(chin, 0);
  EXPECT_EQ(t.router(chin).city, "Chicago");
  EXPECT_EQ(t.FindRouter("NOPE"), -1);
  EXPECT_EQ(t.Positions().size(), 11u);
}

TEST(TopologyTest, GeographyIsSane) {
  // LOSA-NYCM about 3900 km; Abilene nodes all in North America.
  Topology t = Topology::Abilene();
  GeoPoint losa = t.router(t.FindRouter("LOSA")).position;
  GeoPoint nycm = t.router(t.FindRouter("NYCM")).position;
  EXPECT_NEAR(GreatCircleKm(losa, nycm), 3940, 150);
  for (const auto& r : t.routers()) {
    EXPECT_LT(r.position.lon_deg, -60);  // west of the Atlantic
  }
  // Bind the topology first: iterating Topology::Geant().routers() directly
  // would destroy the temporary before the loop body runs.
  Topology geant = Topology::Geant();
  for (const auto& r : geant.routers()) {
    EXPECT_GT(r.position.lon_deg, -12);  // Europe/Middle East
  }
}

TEST(TopologyTest, SamplingRates) {
  EXPECT_DOUBLE_EQ(Topology::SamplingRate(Backbone::kAbilene), 0.01);
  EXPECT_DOUBLE_EQ(Topology::SamplingRate(Backbone::kGeant), 0.001);
}

// ---------------------------------------------------------------- Generator

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest() : topo_(Topology::AbileneGeant()) {
    opts_.peak_flows_per_router_sec = 30;
    opts_.seed = 42;
    gen_ = std::make_unique<FlowGenerator>(topo_, opts_);
  }
  Topology topo_;
  FlowGeneratorOptions opts_;
  std::unique_ptr<FlowGenerator> gen_;
};

TEST_F(GeneratorTest, Deterministic) {
  FlowGenerator g2(topo_, opts_);
  auto a = gen_->GenerateVec(0, 3600, 3660);
  auto b = g2.GenerateVec(0, 3600, 3660);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_ip, b[i].src_ip);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].router, b[i].router);
  }
}

TEST_F(GeneratorTest, RecordsWithinWindowAndValidRouters) {
  auto recs = gen_->GenerateVec(2, 7200, 7500);
  ASSERT_GT(recs.size(), 50u);
  for (const auto& f : recs) {
    EXPECT_GE(f.time_sec, 2 * 86400.0 + 7200);
    EXPECT_LT(f.time_sec, 2 * 86400.0 + 7500);
    EXPECT_GE(f.router, 0);
    EXPECT_LT(f.router, static_cast<int>(topo_.size()));
    EXPECT_GE(f.bytes, 40u);
    EXPECT_GE(f.packets, 1u);
  }
}

TEST_F(GeneratorTest, AbileneSeesMoreRecordsThanGeant) {
  // 1/100 vs 1/1000 sampling: Abilene routers report ~10x more records
  // (paper §4.2: "more flow record tuples were injected from Abilene nodes").
  auto recs = gen_->GenerateVec(0, 43200, 43800);
  size_t abilene = 0, geant = 0;
  for (const auto& f : recs) {
    if (topo_.router(f.router).backbone == Backbone::kAbilene) {
      ++abilene;
    } else {
      ++geant;
    }
  }
  // 11 Abilene vs 23 GÉANT routers; despite fewer routers Abilene dominates.
  EXPECT_GT(abilene, 2 * geant);
}

TEST_F(GeneratorTest, DiurnalRateVariation) {
  auto day = gen_->GenerateVec(0, 13 * 3600, 13 * 3600 + 600);
  auto night = gen_->GenerateVec(0, 2 * 3600, 2 * 3600 + 600);
  EXPECT_GT(day.size(), night.size());
}

TEST_F(GeneratorTest, FlowSizesHeavyTailed) {
  auto recs = gen_->GenerateVec(0, 50000, 50600);
  ASSERT_GT(recs.size(), 100u);
  std::vector<uint64_t> bytes;
  for (const auto& f : recs) bytes.push_back(f.bytes);
  std::sort(bytes.begin(), bytes.end());
  uint64_t median = bytes[bytes.size() / 2];
  uint64_t p99 = bytes[bytes.size() * 99 / 100];
  EXPECT_GT(p99, 20 * median) << "tail not heavy";
}

TEST_F(GeneratorTest, DayDriftBoundedRankChanges) {
  // Most prefixes keep their popularity rank across one day.
  size_t n = gen_->prefix_count();
  size_t same = 0;
  for (size_t i = 0; i < n; ++i) {
    if (gen_->RankOnDay(0, i) == gen_->RankOnDay(1, i)) ++same;
  }
  EXPECT_GT(static_cast<double>(same) / n, 0.75);
  // But across 10 days there is visible drift.
  size_t same10 = 0;
  for (size_t i = 0; i < n; ++i) {
    if (gen_->RankOnDay(0, i) == gen_->RankOnDay(10, i)) ++same10;
  }
  EXPECT_LT(same10, same);
}

TEST_F(GeneratorTest, PrefixHomingConsistent) {
  for (size_t i = 0; i < gen_->prefix_count(); ++i) {
    int home = gen_->HomeRouter(i);
    EXPECT_GE(home, 0);
    EXPECT_LT(home, static_cast<int>(topo_.size()));
  }
  // Flows from a prefix are observed at its home router.
  auto recs = gen_->GenerateVec(0, 30000, 30120);
  size_t matched = 0;
  for (const auto& f : recs) {
    // find src prefix index
    for (size_t i = 0; i < gen_->prefix_count(); ++i) {
      if (gen_->prefix(i).Contains(f.src_ip) &&
          gen_->HomeRouter(i) == f.router) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GT(matched, recs.size() / 3);  // src-side observations
}

// The keep table holds 1 - (1 - p)^n exactly as the formula computes it, so
// the Bernoulli keep-test draws against the same double with or without it.
TEST_F(GeneratorTest, KeepTableEqualsFormulaBitForBit) {
  for (Backbone b : {Backbone::kAbilene, Backbone::kGeant}) {
    const double p = Topology::SamplingRate(b);
    std::vector<uint32_t> packets;
    for (uint32_t n = 0; n < FlowGenerator::kKeepTablePackets + 64; ++n) {
      packets.push_back(n);
    }
    for (uint32_t n : {1000u, 2857u, 714285u, UINT32_MAX}) packets.push_back(n);
    for (uint32_t n : packets) {
      const double want = 1.0 - std::pow(1.0 - p, static_cast<double>(n));
      ASSERT_EQ(std::bit_cast<uint64_t>(gen_->KeepProbability(b, n)),
                std::bit_cast<uint64_t>(want))
          << "backbone " << static_cast<int>(b) << " packets " << n;
    }
  }
}

// Golden output: an FNV-1a hash over every field of every record, in emission
// order. The generator's indexed Zipf search, per-hour memos and its
// rank-to-home and keep-probability tables must consume and map RNG draws
// exactly as a plain lower_bound inverse-CDF search with per-flow HourNoise,
// HomeRouter and pow would, so these values change only with a deliberate
// digest re-roll.
uint64_t HashRecords(const std::vector<FlowRecord>& recs) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& f : recs) {
    mix(f.src_ip);
    mix(f.dst_ip);
    mix(f.src_port);
    mix(f.dst_port);
    mix(f.bytes);
    mix(f.packets);
    mix(std::bit_cast<uint64_t>(f.time_sec));
    mix(static_cast<uint64_t>(static_cast<int64_t>(f.router)));
  }
  return h;
}

TEST(GeneratorGoldenTest, OutputHashPinned) {
  struct Window {
    uint64_t seed;
    double peak_flows;
    int day;
    double t0, t1;
    size_t records;
    uint64_t hash;
  };
  // Grouped by (seed, peak_flows); consecutive rows share one generator, so
  // the multi-day rows also exercise the cached day permutations.
  const Window kWindows[] = {
      // Across the 00:59 -> 01:00 hour boundary and the 09:59 -> 10:00 one.
      {42, 30, 0, 3540, 3660, 952, 0x442c285ee93c5a2full},
      {42, 30, 2, 35990, 36030, 590, 0x190ec030af1e6234ull},
      // A full day at a low rate: every hour's hot set and noise level.
      {42, 0.2, 0, 0, 86400, 286930, 0xe9466bc865daf63aull},
      // Several days, out of order, up to midnight and across noon.
      {707, 30, 1, 86340, 86400, 425, 0x62ac855bf1fae0ebull},
      {707, 30, 3, 0, 60, 430, 0x8cf0fa4fda6d7ec8ull},
      {707, 30, 10, 43170, 43230, 1140, 0x40db3b93c50f7c95ull},
      {707, 30, 0, 7190, 7210, 133, 0x9c681d6b05758c3full},
      // The fig21 trace options: 400 peak flows/router/s at 11:00.
      {0x21f1, 400, 0, 39600, 39630, 6983, 0xf52caf2347404926ull},
      {0x21f1, 400, 1, 43195, 43205, 2250, 0xc414f1c2907af33cull},
      // The rest of perfbench backbone_live's day-0 sample: 30 s windows
      // from 11:00 (the first is the 39600 row above).
      {0x21f1, 400, 0, 39630, 39660, 6880, 0xa2f2800ac4a5ad58ull},
      {0x21f1, 400, 0, 39660, 39690, 6867, 0xdc27f12535e8232bull},
      {0x21f1, 400, 0, 39690, 39720, 6915, 0x4941d377e457adabull},
      // t0 >= 65536 s on an odd day: the window key (day << 20) ^ (t0 * 16)
      // collides with day 0's at t0 - 65536 = 100 s, so this window forks
      // that window's RNG stream. Pinned as it stands; removing the
      // collision re-pins this row.
      {0x21f1, 400, 1, 65636, 65646, 2040, 0xd0b5cff6526f759cull},
  };
  const Topology topo = Topology::AbileneGeant();
  std::unique_ptr<FlowGenerator> gen;
  for (const Window& w : kWindows) {
    if (!gen || gen->options().seed != w.seed ||
        gen->options().peak_flows_per_router_sec != w.peak_flows) {
      FlowGeneratorOptions opts;
      opts.seed = w.seed;
      opts.peak_flows_per_router_sec = w.peak_flows;
      gen = std::make_unique<FlowGenerator>(topo, opts);
    }
    auto recs = gen->GenerateVec(w.day, w.t0, w.t1);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << w.seed << " day " << w.day << " [" << w.t0
                 << ", " << w.t1 << ")");
    EXPECT_EQ(recs.size(), w.records);
    EXPECT_EQ(HashRecords(recs), w.hash)
        << std::hex << "0x" << HashRecords(recs) << "ull";
  }
}

// ---------------------------------------------------------------- Oracle

// Plain inverse-CDF Zipf: std::lower_bound over the sampler's CDF (built
// with the same operations in the same order), clamped to n - 1.
class PlainZipf {
 public:
  PlainZipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  size_t Rank(double u) const {
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }
  size_t Sample(Rng* rng) const { return Rank(rng->UniformDouble()); }

 private:
  std::vector<double> cdf_;
};

// The day's rank -> prefix permutation, read through RankOnDay.
std::vector<size_t> PermutationOnDay(FlowGenerator* gen, int day) {
  std::vector<size_t> perm(gen->prefix_count());
  for (size_t i = 0; i < perm.size(); ++i) perm[gen->RankOnDay(day, i)] = i;
  return perm;
}

// FlowGenerator::Generate as it was before its lookup tables, kept as the
// reference: every draw in stream order, each mapped as it is drawn, with
// lower_bound Zipf draws, HomeRouter and a forward hot-set scan per flow,
// HourNoise per flow, Rng::Pareto's pow for every long flow and the keep
// formula's pow for every keep-test. The generator must emit the same
// records, field for field and in the same order.
std::vector<FlowRecord> ReferenceGenerate(FlowGenerator* gen, int day,
                                          double t0_sec, double t1_sec) {
  const FlowGeneratorOptions& opt = gen->options();
  const Topology& topo = gen->topology();
  const std::vector<size_t> perm = PermutationOnDay(gen, day);
  const size_t n_prefixes = gen->prefix_count();
  const PlainZipf popularity(n_prefixes, opt.popularity_exponent);
  const PlainZipf port_popularity(15, 1.2);
  const uint16_t kPorts[] = {80,   443,  25,   53,  110, 143, 22, 21,
                             3306, 8080, 6881, 1433, 135, 445, 139};
  const DiurnalCurve diurnal(opt.diurnal_floor);
  auto hour_noise = [&](int router, int hour) {
    uint64_t key = (static_cast<uint64_t>(day) << 32) ^
                   (static_cast<uint64_t>(router) << 8) ^
                   static_cast<uint64_t>(hour);
    Rng noise_rng = Rng(opt.seed).Fork(0xA0153 ^ key);
    return noise_rng.LogNormal(0.0, opt.hour_noise_sigma);
  };
  auto next_hot = [&](size_t i, int hour) {
    for (size_t k = 0; k < n_prefixes; ++k) {
      const size_t j = (i + k) % n_prefixes;
      if (gen->InHotSet(j, hour)) return j;
    }
    return i;
  };
  auto keep = [](Backbone b, uint32_t packets) {
    return 1.0 - std::pow(1.0 - Topology::SamplingRate(b),
                          static_cast<double>(packets));
  };

  std::vector<FlowRecord> out;
  uint64_t window_key = (static_cast<uint64_t>(day) << 20) ^
                        (static_cast<uint64_t>(t0_sec * 16));
  Rng rng = Rng(opt.seed).Fork(0xF70 ^ window_key);
  const size_t n_routers = topo.size();
  for (size_t r = 0; r < n_routers; ++r) {
    double t = t0_sec;
    while (t < t1_sec) {
      int hour = static_cast<int>(t / 3600.0);
      double level = diurnal.At(t) * hour_noise(static_cast<int>(r), hour);
      double lambda = std::max(1e-6, opt.peak_flows_per_router_sec * level);
      t += rng.Exponential(lambda);
      if (t >= t1_sec) break;

      size_t src_idx = n_prefixes;
      for (int attempt = 0; attempt < 8; ++attempt) {
        size_t idx = perm[popularity.Sample(&rng)];
        if (static_cast<size_t>(gen->HomeRouter(idx)) == r) {
          src_idx = idx;
          break;
        }
      }
      if (src_idx == n_prefixes) {
        src_idx = r + n_routers * rng.Uniform(static_cast<uint64_t>(
                                      opt.prefixes_per_router));
      }
      size_t dst_idx;
      if (rng.Bernoulli(opt.hot_set_fraction)) {
        dst_idx = next_hot(rng.Uniform(n_prefixes), hour);
      } else {
        dst_idx = perm[popularity.Sample(&rng)];
      }

      FlowRecord f;
      f.src_ip = gen->prefix(src_idx).First() +
                 static_cast<IpAddr>(rng.Uniform(gen->prefix(src_idx).Size()));
      f.dst_ip = gen->prefix(dst_idx).First() +
                 static_cast<IpAddr>(rng.Uniform(gen->prefix(dst_idx).Size()));
      f.src_port = static_cast<uint16_t>(1024 + rng.Uniform(64512));
      f.dst_port = kPorts[port_popularity.Sample(&rng)];
      double raw_bytes;
      if (rng.Bernoulli(opt.short_flow_fraction)) {
        raw_bytes = 40.0 + rng.UniformDouble() * 400.0;
      } else if (rng.Bernoulli(opt.elephant_fraction)) {
        raw_bytes = std::min(5.0e8, rng.Pareto(opt.elephant_scale, 1.1));
      } else {
        raw_bytes = std::min(
            5.0e8, rng.Pareto(opt.flow_bytes_scale, opt.flow_bytes_shape));
      }
      uint32_t raw_packets =
          static_cast<uint32_t>(std::max(1.0, raw_bytes / 700.0));
      f.time_sec = static_cast<double>(day) * 86400.0 + t;

      int observers[2] = {static_cast<int>(r), gen->HomeRouter(dst_idx)};
      int n_obs = observers[0] == observers[1] ? 1 : 2;
      for (int o = 0; o < n_obs; ++o) {
        int router = observers[o];
        const Backbone backbone = topo.router(router).backbone;
        double p = Topology::SamplingRate(backbone);
        if (!rng.Bernoulli(keep(backbone, raw_packets))) continue;
        FlowRecord obs = f;
        obs.router = router;
        obs.bytes = static_cast<uint64_t>(std::max(40.0, raw_bytes * p));
        obs.packets = static_cast<uint32_t>(
            std::max(1.0, static_cast<double>(raw_packets) * p));
        out.push_back(obs);
      }
    }

    double expected_scans =
        opt.scans_per_router_hour * (t1_sec - t0_sec) / 3600.0;
    uint64_t n_scans = rng.Poisson(expected_scans);
    for (uint64_t s = 0; s < n_scans; ++s) {
      double t_start = t0_sec + rng.UniformDouble() * (t1_sec - t0_sec);
      double t_end =
          std::min(t1_sec, t_start + 5.0 + rng.UniformDouble() * 25.0);
      size_t src_idx = r + n_routers * rng.Uniform(static_cast<uint64_t>(
                                           opt.prefixes_per_router));
      size_t dst_idx = rng.Uniform(n_prefixes);
      IpAddr scanner =
          gen->prefix(src_idx).First() +
          static_cast<IpAddr>(rng.Uniform(gen->prefix(src_idx).Size()));
      double raw_probes = std::clamp(
          opt.scan_probes_scale * rng.Pareto(1.0, 1.3), 100.0, 200000.0);
      uint16_t port = rng.Bernoulli(0.5) ? 445 : 3306;
      int observers[2] = {static_cast<int>(r), gen->HomeRouter(dst_idx)};
      int n_obs = observers[0] == observers[1] ? 1 : 2;
      for (int o = 0; o < n_obs; ++o) {
        int router = observers[o];
        double p = Topology::SamplingRate(topo.router(router).backbone);
        uint64_t k = rng.Poisson(raw_probes * p);
        for (uint64_t i = 0; i < k; ++i) {
          FlowRecord f;
          f.src_ip = scanner;
          f.dst_ip =
              gen->prefix(dst_idx).First() +
              static_cast<IpAddr>(rng.Uniform(gen->prefix(dst_idx).Size()));
          f.src_port = 40000;
          f.dst_port = port;
          f.bytes = 40 + rng.Uniform(20);
          f.packets = 1;
          f.time_sec = static_cast<double>(day) * 86400.0 + t_start +
                       rng.UniformDouble() * (t_end - t_start);
          f.router = router;
          out.push_back(f);
        }
      }
    }
  }
  return out;
}

struct OracleCase {
  const char* name;
  Topology topology;
  FlowGeneratorOptions options;
};

FlowGeneratorOptions OracleOptions() {
  FlowGeneratorOptions opts;
  opts.peak_flows_per_router_sec = 40;
  opts.seed = 0x0AC1E;
  return opts;
}

// Runs each case over days 0-3: a window starting at 0 s, one across an
// hour boundary, one at noon and one ending at 86 400 s, comparing every
// record with the reference.
void ExpectMatchesReference(const std::vector<OracleCase>& cases) {
  struct Window {
    int day;
    double t0, t1;
  };
  const Window kWindows[] = {
      {0, 0, 60}, {1, 3570, 3630}, {2, 43170, 43230}, {3, 86340, 86400}};
  for (const OracleCase& c : cases) {
    FlowGenerator gen(c.topology, c.options);
    for (const Window& w : kWindows) {
      SCOPED_TRACE(::testing::Message() << c.name << " day " << w.day << " ["
                                        << w.t0 << ", " << w.t1 << ")");
      const std::vector<FlowRecord> got = gen.GenerateVec(w.day, w.t0, w.t1);
      const std::vector<FlowRecord> want =
          ReferenceGenerate(&gen, w.day, w.t0, w.t1);
      ASSERT_GT(want.size(), 0u);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        const FlowRecord& g = got[i];
        const FlowRecord& x = want[i];
        ASSERT_TRUE(g.src_ip == x.src_ip && g.dst_ip == x.dst_ip &&
                    g.src_port == x.src_port && g.dst_port == x.dst_port &&
                    g.bytes == x.bytes && g.packets == x.packets &&
                    std::bit_cast<uint64_t>(g.time_sec) ==
                        std::bit_cast<uint64_t>(x.time_sec) &&
                    g.router == x.router)
            << "record " << i << " of " << want.size() << ": bytes "
            << g.bytes << " vs " << x.bytes << ", router " << g.router
            << " vs " << x.router;
      }
    }
  }
}

// The Pareto size laws around the default: the keep bounds' buckets, the
// pow that waits for a passing keep draw, and the share of short flows.
TEST(GeneratorOracleTest, SizeLaws) {
  std::vector<OracleCase> cases;
  auto add = [&cases](const char* name, auto edit) {
    FlowGeneratorOptions opts = OracleOptions();
    edit(&opts);
    cases.push_back({name, Topology::AbileneGeant(), opts});
  };
  add("defaults", [](FlowGeneratorOptions*) {});
  add("elephant_fraction 0.5",
      [](FlowGeneratorOptions* o) { o->elephant_fraction = 0.5; });
  add("short_flow_fraction 0",
      [](FlowGeneratorOptions* o) { o->short_flow_fraction = 0.0; });
  add("short_flow_fraction 1",
      [](FlowGeneratorOptions* o) { o->short_flow_fraction = 1.0; });
  add("flow_bytes_shape 0.6",
      [](FlowGeneratorOptions* o) { o->flow_bytes_shape = 0.6; });
  add("flow_bytes_shape 3.0",
      [](FlowGeneratorOptions* o) { o->flow_bytes_shape = 3.0; });
  ExpectMatchesReference(cases);
}

// The prefix universe: its size sets the popularity CDF's direct table and
// the bucket-home bytes, and prefix_len the address draws' bound.
TEST(GeneratorOracleTest, PrefixUniverse) {
  std::vector<OracleCase> cases;
  for (int per_router : {1, 100}) {
    FlowGeneratorOptions opts = OracleOptions();
    opts.prefixes_per_router = per_router;
    cases.push_back({per_router == 1 ? "prefixes_per_router 1"
                                     : "prefixes_per_router 100",
                     Topology::AbileneGeant(), opts});
  }
  for (int len : {8, 24}) {
    FlowGeneratorOptions opts = OracleOptions();
    opts.prefix_len = len;
    cases.push_back({len == 8 ? "prefix_len 8" : "prefix_len 24",
                     Topology::AbileneGeant(), opts});
  }
  ExpectMatchesReference(cases);
}

// Each topology alone: one backbone's sampling rate for every observer.
TEST(GeneratorOracleTest, Topologies) {
  ExpectMatchesReference({{"Abilene", Topology::Abilene(), OracleOptions()},
                          {"Geant", Topology::Geant(), OracleOptions()}});
}

// Each day's bucket-home byte is the home router of the prefix that every
// draw in the bucket picks, or kSplitHome exactly where the bucket's two
// ends map to different ranks.
TEST_F(GeneratorTest, BucketHomeMatchesRankOnEveryBucket) {
  const size_t n = gen_->prefix_count();
  const PlainZipf popularity(n, opts_.popularity_exponent);
  for (int day = 0; day <= 3; ++day) {
    const std::vector<size_t> perm = PermutationOnDay(gen_.get(), day);
    size_t split = 0;
    for (size_t b = 0; b < ZipfSampler::kBuckets; ++b) {
      const double lo =
          std::ldexp(static_cast<double>(b), -ZipfSampler::kDirectBits);
      const double hi = std::nextafter(
          std::ldexp(static_cast<double>(b + 1), -ZipfSampler::kDirectBits),
          0.0);
      const size_t rank = popularity.Rank(lo);
      const uint8_t want =
          rank == popularity.Rank(hi)
              ? static_cast<uint8_t>(gen_->HomeRouter(perm[rank]))
              : FlowGenerator::kSplitHome;
      split += want == FlowGenerator::kSplitHome;
      ASSERT_EQ(gen_->BucketHome(day, b), want)
          << "day " << day << " bucket " << b;
    }
    EXPECT_LT(split, n);  // a CDF entry splits at most one bucket
  }
}

// ---------------------------------------------------------------- Aggregator

TEST(AggregatorTest, GroupsByWindowAndPrefixPair) {
  Aggregator agg({30.0, 16, 300});
  FlowRecord f;
  f.src_ip = ParseIp("10.1.2.3").value();
  f.dst_ip = ParseIp("10.2.9.9").value();
  f.bytes = 1000;
  f.router = 0;
  f.dst_port = 80;
  f.time_sec = 5;
  agg.Add(f);
  f.src_ip = ParseIp("10.1.200.1").value();  // same /16
  f.bytes = 500;
  f.time_sec = 20;
  agg.Add(f);
  f.time_sec = 40;  // next window
  agg.Add(f);
  auto recs = agg.DrainAll();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].octets, 1500u);
  EXPECT_EQ(recs[0].flows, 2u);
  EXPECT_EQ(recs[0].window_start, 0u);
  EXPECT_EQ(recs[1].window_start, 30u);
  EXPECT_EQ(recs[0].src_prefix.ToString(), "10.1.0.0/16");
}

TEST(AggregatorTest, FanoutCountsShortFlows) {
  Aggregator agg({30.0, 16, 300});
  FlowRecord f;
  f.src_ip = ParseIp("10.1.0.1").value();
  f.dst_ip = ParseIp("10.2.0.1").value();
  f.router = 0;
  for (int i = 0; i < 10; ++i) {
    f.bytes = 40;  // short
    f.dst_ip = ParseIp("10.2.0.1").value() + i;
    f.time_sec = i;
    agg.Add(f);
  }
  f.bytes = 100000;  // long
  f.time_sec = 15;
  agg.Add(f);
  auto recs = agg.DrainAll();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].fanout, 10u);
  EXPECT_EQ(recs[0].flows, 11u);
  EXPECT_EQ(recs[0].distinct_dsts, 10u);
}

TEST(AggregatorTest, DrainCompletedLeavesOpenWindows) {
  Aggregator agg({30.0, 16, 300});
  FlowRecord f;
  f.src_ip = 0x0A010001;
  f.dst_ip = 0x0A020001;
  f.router = 0;
  f.bytes = 100;
  f.time_sec = 10;
  agg.Add(f);
  f.time_sec = 70;
  agg.Add(f);
  auto done = agg.DrainCompleted(60);
  EXPECT_EQ(done.size(), 1u);
  EXPECT_EQ(agg.buffered_windows(), 1u);
}

TEST(AggregatorTest, TopPortIsMode) {
  Aggregator agg({30.0, 16, 300});
  FlowRecord f;
  f.src_ip = 0x0A010001;
  f.dst_ip = 0x0A020001;
  f.router = 0;
  f.bytes = 100;
  for (int i = 0; i < 3; ++i) {
    f.dst_port = 443;
    f.time_sec = i;
    agg.Add(f);
  }
  f.dst_port = 80;
  f.time_sec = 4;
  agg.Add(f);
  auto recs = agg.DrainAll();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].top_dst_port, 443);
}

// The Figure 1 property: aggregation + filtering reduces record volume by
// orders of magnitude.
TEST(AggregatorTest, AggregationReducesVolume) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 120;
  gopts.seed = 7;
  FlowGenerator gen(topo, gopts);
  auto raw = gen.GenerateVec(0, 43200, 44100);  // 15 min midday
  auto aggregated = AggregateAll(raw, {30.0, 16, 300});
  EXPECT_LT(aggregated.size(), raw.size());
  size_t filtered = 0;
  uint64_t seq = 0;
  for (const auto& rec : aggregated) {
    if (ToIndex2Tuple(rec, seq++).has_value()) ++filtered;
  }
  // Filtering removes the vast majority of aggregates.
  EXPECT_LT(filtered, aggregated.size() / 5);
}

// ---------------------------------------------------------------- Indices

TEST(IndicesTest, DefinitionsValidate) {
  EXPECT_TRUE(MakeIndex1().Validate().ok());
  EXPECT_TRUE(MakeIndex2().Validate().ok());
  EXPECT_TRUE(MakeIndex3().Validate().ok());
  EXPECT_EQ(MakeIndex1().schema.dims(), 3);
  EXPECT_EQ(MakeIndex1().time_attr, 1);
  EXPECT_EQ(MakeIndex3().carried.size(), 3u);
}

AggregateRecord SampleRecord() {
  AggregateRecord rec;
  rec.src_prefix = IpPrefix(ParseIp("10.1.0.0").value(), 16);
  rec.dst_prefix = IpPrefix(ParseIp("10.2.0.0").value(), 16);
  rec.window_start = 300;
  rec.octets = 100 * 1024;
  rec.fanout = 20;
  rec.distinct_dsts = 5;
  rec.flows = 25;
  rec.avg_flow_size = 4096;
  rec.top_dst_port = 3306;
  rec.router = 4;
  return rec;
}

TEST(IndicesTest, FiltersApplyThresholds) {
  AggregateRecord rec = SampleRecord();
  EXPECT_TRUE(ToIndex1Tuple(rec, 1).has_value());   // fanout 20 >= 16
  EXPECT_TRUE(ToIndex2Tuple(rec, 1).has_value());   // 100KB >= 80KB
  EXPECT_TRUE(ToIndex3Tuple(rec, 1).has_value());   // 4KB >= 1.5KB
  rec.fanout = 15;
  rec.octets = 70 * 1024;
  rec.avg_flow_size = 1000;
  EXPECT_FALSE(ToIndex1Tuple(rec, 1).has_value());
  EXPECT_FALSE(ToIndex2Tuple(rec, 1).has_value());
  EXPECT_FALSE(ToIndex3Tuple(rec, 1).has_value());
}

TEST(IndicesTest, TuplesMatchSchemas) {
  AggregateRecord rec = SampleRecord();
  auto t1 = ToIndex1Tuple(rec, 9).value();
  EXPECT_EQ(t1.point.size(), 3u);
  EXPECT_EQ(t1.point[0], rec.dst_prefix.First());
  EXPECT_EQ(t1.point[1], rec.window_start);
  EXPECT_EQ(t1.point[2], rec.fanout);
  EXPECT_EQ(t1.extra.size(), 2u);
  EXPECT_EQ(t1.origin, 4);
  EXPECT_EQ(t1.seq, 9u);
  EXPECT_TRUE(MakeIndex1().schema.Contains(t1.point));

  auto t3 = ToIndex3Tuple(rec, 9).value();
  EXPECT_EQ(t3.extra[1], 3306u);
  EXPECT_TRUE(MakeIndex3().schema.Contains(t3.point));
}

TEST(IndicesTest, ClampsToDomainCaps) {
  AggregateRecord rec = SampleRecord();
  rec.fanout = 999999;
  rec.octets = 50ull * 1024 * 1024 * 1024;
  auto t1 = ToIndex1Tuple(rec, 1).value();
  EXPECT_EQ(t1.point[2], PaperIndexOptions{}.index1_max_fanout);
  auto t2 = ToIndex2Tuple(rec, 1).value();
  EXPECT_EQ(t2.point[2], PaperIndexOptions{}.index2_max_octets);
}

// ---------------------------------------------------------------- Skew/drift

// Figure 2/3 preconditions: aggregated traffic is strongly skewed, and
// day-to-day distributions are far more similar than hour-to-hour ones.
TEST(TrafficStatsTest, IndexedDataIsSkewed) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 120;
  gopts.seed = 13;
  FlowGenerator gen(topo, gopts);
  auto raw = gen.GenerateVec(0, 40000, 41800);
  auto aggregated = AggregateAll(raw, {30.0, 16, 300});
  ASSERT_GT(aggregated.size(), 200u);

  IndexDef def = MakeIndex2();
  Histogram h(def.schema, 4);  // 64 cells, like the paper's 64-bin histogram
  PaperIndexOptions no_filter;
  no_filter.index2_min_octets = 0;
  uint64_t seq = 0;
  for (const auto& rec : aggregated) {
    auto t = ToIndex2Tuple(rec, seq++, no_filter);
    if (t) h.Add(t->point);
  }
  // Max bin should hold an order of magnitude more than the mean bin.
  double max_mass = 0;
  for (const auto& [p, m] : h.WeightedCellCenters()) {
    max_mass = std::max(max_mass, m);
  }
  double mean = h.total_mass() / static_cast<double>(h.num_cells());
  EXPECT_GT(max_mass, 8 * mean);
}

TEST(TrafficStatsTest, DayToDaySimilarHourToHourNot) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.peak_flows_per_router_sec = 60;
  gopts.seed = 17;
  FlowGenerator gen(topo, gopts);

  IndexDef def = MakeIndex2();
  PaperIndexOptions no_filter;
  no_filter.index2_min_octets = 0;
  // Histogram over (dst_prefix, time-of-day, octets).
  auto histogram_of = [&](int day, double t0, double t1) {
    Histogram h(def.schema, 8);
    auto raw = gen.GenerateVec(day, t0, t1);
    uint64_t seq = 0;
    for (const auto& rec : AggregateAll(raw, {30.0, 16, 300})) {
      auto t = ToIndex2Tuple(rec, seq++, no_filter);
      if (t) {
        t->point[1] %= 86400;  // align timestamps across days (time of day)
        h.Add(t->point);
      }
    }
    return h;
  };

  // Same hour on consecutive days vs different hours on the same day.
  Histogram d0 = histogram_of(0, 36000, 37800);
  Histogram d1 = histogram_of(1, 36000, 37800);
  Histogram other_hour = histogram_of(0, 64800, 66600);
  double day_mismatch = MismatchFraction(d0, d1).value();
  double hour_mismatch = MismatchFraction(d0, other_hour).value();
  EXPECT_LT(day_mismatch, 0.6 * hour_mismatch);
  EXPECT_LT(day_mismatch, 0.35);
  EXPECT_GT(hour_mismatch, 0.3);  // hot-set mixtures make hours diverge
}

// ---------------------------------------------------------------- Anomalies

TEST(AnomalyInjectorTest, AlphaFlowProducesLargeAggregates) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 19;
  FlowGenerator gen(topo, gopts);
  AnomalyInjector inj(&gen);
  AnomalyEvent ev;
  ev.type = AnomalyType::kAlphaFlow;
  ev.start_sec = 1000;
  ev.duration_sec = 120;
  ev.src_prefix = 3;
  ev.dst_prefix = 10;
  ev.magnitude = 4e9;  // 4 GB raw
  auto recs = inj.Generate(ev, 900, 1300);
  ASSERT_FALSE(recs.empty());
  auto aggregated = AggregateAll(recs, {30.0, 16, 300});
  uint64_t max_octets = 0;
  for (const auto& rec : aggregated) max_octets = std::max(max_octets, rec.octets);
  // 4 GB over 120 s at 1/100 sampling -> ~10 MB per 30 s window.
  EXPECT_GT(max_octets, 4'000'000u);
}

TEST(AnomalyInjectorTest, ScanAndDosDriveFanout) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  gopts.seed = 23;
  FlowGenerator gen(topo, gopts);
  AnomalyInjector inj(&gen);

  AnomalyEvent scan;
  scan.type = AnomalyType::kPortScan;
  scan.start_sec = 0;
  scan.duration_sec = 300;
  scan.src_prefix = 1;
  scan.dst_prefix = 2;
  scan.magnitude = 20000;  // probes/sec raw
  auto scan_aggr = AggregateAll(inj.Generate(scan, 0, 300), {30.0, 16, 300});
  uint32_t max_fanout = 0, max_dsts = 0;
  for (const auto& rec : scan_aggr) {
    max_fanout = std::max(max_fanout, rec.fanout);
    max_dsts = std::max(max_dsts, rec.distinct_dsts);
  }
  EXPECT_GT(max_fanout, 1500u);
  EXPECT_GT(max_dsts, 16u);  // distinguishes scan from DoS

  AnomalyEvent dos;
  dos.type = AnomalyType::kDos;
  dos.start_sec = 0;
  dos.duration_sec = 300;
  dos.src_prefix = 5;
  dos.dst_prefix = 6;
  dos.magnitude = 20000;
  auto dos_aggr = AggregateAll(inj.Generate(dos, 0, 300), {30.0, 16, 300});
  uint32_t dos_fanout = 0, dos_dsts = 0;
  for (const auto& rec : dos_aggr) {
    dos_fanout = std::max(dos_fanout, rec.fanout);
    dos_dsts = std::max(dos_dsts, rec.distinct_dsts);
  }
  EXPECT_GT(dos_fanout, 1500u);
  EXPECT_LE(dos_dsts, 1u);  // single victim
}

TEST(AnomalyInjectorTest, EmptyOutsideEventWindow) {
  Topology topo = Topology::Abilene();
  FlowGeneratorOptions gopts;
  FlowGenerator gen(topo, gopts);
  AnomalyInjector inj(&gen);
  AnomalyEvent ev;
  ev.type = AnomalyType::kDos;
  ev.start_sec = 1000;
  ev.duration_sec = 60;
  ev.magnitude = 10000;
  EXPECT_TRUE(inj.Generate(ev, 0, 900).empty());
  EXPECT_TRUE(inj.Generate(ev, 1100, 2000).empty());
}

// ------------------------------------------------- Binary trace I/O (MFT1)

std::vector<FlowRecord> SampleFlows() {
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 5; ++i) {
    FlowRecord f;
    f.src_ip = 0x0a000001u + static_cast<uint32_t>(i);
    f.dst_ip = 0xc0a80001u + static_cast<uint32_t>(7 * i);
    f.src_port = static_cast<uint16_t>(1024 + i);
    f.dst_port = static_cast<uint16_t>(80 + i);
    f.bytes = 1'000'000'000ull * static_cast<uint64_t>(i + 1);
    f.packets = static_cast<uint32_t>(40 + i);
    f.time_sec = 39600.0 + 0.125 * i;
    f.router = i % 2 ? -1 : i;
    flows.push_back(f);
  }
  return flows;
}

/// Serializes SampleFlows(), hands the bytes to `corrupt` for mutation, and
/// returns the whole-stream read result.
Result<std::vector<FlowRecord>> ReadCorrupted(
    const std::function<void(std::string*)>& corrupt) {
  std::ostringstream out;
  EXPECT_TRUE(WriteFlowsBinary(out, SampleFlows()).ok());
  std::string bytes = out.str();
  corrupt(&bytes);
  std::istringstream in(bytes);
  return ReadFlowsBinary(in);
}

TEST(BinaryTraceIoTest, RoundTripPreservesEveryField) {
  auto flows = SampleFlows();
  std::ostringstream out;
  ASSERT_TRUE(WriteFlowsBinary(out, flows).ok());
  // Header 16 bytes + 36 bytes per record, exactly.
  EXPECT_EQ(out.str().size(), 16u + 36u * flows.size());
  std::istringstream in(out.str());
  auto got = ReadFlowsBinary(in);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(got.value()[i].src_ip, flows[i].src_ip);
    EXPECT_EQ(got.value()[i].dst_ip, flows[i].dst_ip);
    EXPECT_EQ(got.value()[i].src_port, flows[i].src_port);
    EXPECT_EQ(got.value()[i].dst_port, flows[i].dst_port);
    EXPECT_EQ(got.value()[i].bytes, flows[i].bytes);
    EXPECT_EQ(got.value()[i].packets, flows[i].packets);
    EXPECT_EQ(got.value()[i].time_sec, flows[i].time_sec);  // exact: f64 bits
    EXPECT_EQ(got.value()[i].router, flows[i].router);
  }
}

TEST(BinaryTraceIoTest, RejectsShortHeader) {
  auto got = ReadCorrupted([](std::string* b) { b->resize(10); });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("shorter than the 16-byte header"),
            std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, RejectsBadMagic) {
  auto got = ReadCorrupted([](std::string* b) { (*b)[0] = 'X'; });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("bad magic"), std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, RejectsUnsupportedVersion) {
  auto got = ReadCorrupted([](std::string* b) { (*b)[4] = 9; });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("unsupported version 9"),
            std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, RejectsRecordSizeMismatch) {
  auto got = ReadCorrupted([](std::string* b) { (*b)[6] = 40; });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("40-byte records, reader expects 36"),
            std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, ReportsTruncatedRecord) {
  // Chop the file mid-way through record 3 (zero-based).
  auto got = ReadCorrupted([](std::string* b) { b->resize(16 + 36 * 3 + 20); });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find(
                "truncated at record 3 of 5 (short read of 20 bytes)"),
            std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, ReportsTrailingBytes) {
  auto got = ReadCorrupted([](std::string* b) { b->append("junk"); });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find(
                "trailing bytes after the declared 5 records"),
            std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, RejectsCorruptTimeAndRouter) {
  // time_sec sits at record offset 24; flip its sign bit (byte 7 of the f64).
  auto got = ReadCorrupted(
      [](std::string* b) { (*b)[16 + 36 * 2 + 24 + 7] |= '\x80'; });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find(
                "record 2 has a non-finite or negative time_sec"),
            std::string::npos)
      << got.status().ToString();

  // router sits at record offset 32; -5 as little-endian i32.
  got = ReadCorrupted([](std::string* b) {
    const size_t off = 16 + 36 * 4 + 32;
    (*b)[off] = static_cast<char>(0xFB);
    (*b)[off + 1] = (*b)[off + 2] = (*b)[off + 3] = static_cast<char>(0xFF);
  });
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("record 4 has router < -1"),
            std::string::npos)
      << got.status().ToString();
}

TEST(BinaryTraceIoTest, StreamingReaderCountsRecords) {
  std::ostringstream out;
  ASSERT_TRUE(WriteFlowsBinary(out, SampleFlows()).ok());
  std::istringstream in(out.str());
  BinaryFlowReader reader(&in);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.record_count(), 5u);
  FlowRecord f;
  size_t n = 0;
  while (true) {
    auto more = reader.Next(&f);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    ++n;
  }
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(reader.records_read(), 5u);
}

}  // namespace
}  // namespace mind
