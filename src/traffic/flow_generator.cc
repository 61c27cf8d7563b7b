#include "traffic/flow_generator.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace mind {

namespace {

// Raw bytes a flow is capped at: what fits in one reporting window (larger
// transfers span windows).
constexpr double kMaxFlowBytes = 5.0e8;
// Pareto shape of elephant raw bytes.
constexpr double kElephantShape = 1.1;
// Source ports are drawn from [1024, 65536).
constexpr uint64_t kEphemeralPorts = 64512;

uint32_t RawPackets(double raw_bytes) {
  return static_cast<uint32_t>(std::max(1.0, raw_bytes / 700.0));
}

// The draw r whose r % n Rng::Uniform(n) returns, consuming the same Next()
// calls, rejection rounds included; a flow nobody keeps never needs the %.
// (For n = 2^k the threshold is 0 and r & (n - 1) == r % n.)
uint64_t UniformDraw(Rng* rng, uint64_t n) {
  if ((n & (n - 1)) == 0) return rng->Next();
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = rng->Next();
    if (r >= threshold) return r;
  }
}

// Rng::Pareto split in two: ParetoU makes its draws, ParetoBytes its
// arithmetic (capped at kMaxFlowBytes), so the pow can wait.
double ParetoU(Rng* rng) {
  double u;
  do {
    u = rng->UniformDouble();
  } while (u == 0.0);
  return u;
}

double ParetoBytes(double scale, double shape, double u) {
  return std::min(kMaxFlowBytes, scale / std::pow(u, 1.0 / shape));
}

}  // namespace

FlowGenerator::FlowGenerator(const Topology& topology,
                             FlowGeneratorOptions options)
    : topology_(topology),
      options_(options),
      popularity_(static_cast<size_t>(topology.size()) *
                      static_cast<size_t>(options.prefixes_per_router),
                  options.popularity_exponent),
      diurnal_(options.diurnal_floor),
      common_ports_({80, 443, 25, 53, 110, 143, 22, 21, 3306, 8080, 6881,
                     1433, 135, 445, 139}),
      port_popularity_(15, 1.2) {
  MIND_CHECK_GE(options.prefixes_per_router, 1);
  // Home routers fit a bucket-home byte beside the split marker.
  MIND_CHECK_LT(topology.size(), size_t{kSplitHome});
  size_t n = topology.size() * static_cast<size_t>(options.prefixes_per_router);
  prefixes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Customer /16s spread across the routable space (as real allocations
    // are): a coarse histogram over the dst_prefix dimension must be able to
    // tell customers apart, or no embedding could balance it.
    IpAddr a = 10u + static_cast<IpAddr>((i * 37) % 180);
    IpAddr b = static_cast<IpAddr>((i * 151) % 256);
    prefixes_.emplace_back((a << 24) | (b << 16), options.prefix_len);
  }
  for (Backbone b : {Backbone::kAbilene, Backbone::kGeant}) {
    for (uint32_t k = 0; k < kKeepTablePackets; ++k) {
      keep_[static_cast<size_t>(b)][k] =
          KeepFormula(Topology::SamplingRate(b), k);
    }
  }
  long_law_ = MakeSizeLaw(options.flow_bytes_scale, options.flow_bytes_shape);
  elephant_law_ = MakeSizeLaw(options.elephant_scale, kElephantShape);
}

FlowGenerator::SizeLaw FlowGenerator::MakeSizeLaw(double scale,
                                                  double shape) const {
  MIND_CHECK_GT(scale, 0.0);
  MIND_CHECK_GT(shape, 0.0);
  SizeLaw law;
  law.scale = scale;
  law.shape = shape;
  const size_t buckets = size_t{1} << kSizeBits;
  for (auto& bound : law.keep_bound) bound.resize(buckets);
  for (size_t j = 0; j < buckets; ++j) {
    // The largest flow of bucket j is at its low edge (u -> 0 is the cap).
    // u^(1/shape) grows with u, but glibc's pow is not guaranteed to be
    // correctly rounded, so a u just above the edge may compute a few ulps
    // more bytes than the edge and reach the next whole packet. One packet
    // more covers that; KeepProbability rises with whole packets by a
    // factor 1 - p per packet, far above pow's error.
    const double edge_bytes =
        j == 0 ? kMaxFlowBytes
               : ParetoBytes(scale, shape,
                             std::ldexp(static_cast<double>(j), -kSizeBits));
    const uint32_t packets = RawPackets(edge_bytes) + 1;
    for (Backbone b : {Backbone::kAbilene, Backbone::kGeant}) {
      law.keep_bound[static_cast<size_t>(b)][j] = KeepProbability(b, packets);
    }
  }
  return law;
}

double FlowGenerator::KeepFormula(double p, uint32_t packets) {
  return 1.0 - std::pow(1.0 - p, static_cast<double>(packets));
}

bool FlowGenerator::InHotSet(size_t prefix_idx, int hour) const {
  // ~5% of prefixes are "hot" each hour; the set is keyed by hour alone so
  // the same diurnal mixture repeats every day (Figure 3's stationarity).
  uint64_t h = (prefix_idx * 0x9E3779B97F4A7C15ull) ^
               (static_cast<uint64_t>(hour) * 0x85EBCA6B0ull) ^ options_.seed;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return (h % 100) < 5;
}

const std::vector<size_t>& FlowGenerator::DayPermutation(int day) {
  MIND_CHECK_GE(day, 0);
  while (static_cast<int>(day_perms_.size()) <= day) {
    std::vector<size_t> perm;
    if (day_perms_.empty()) {
      // Day 0: a fixed random assignment of prefixes to popularity ranks.
      perm.resize(prefixes_.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      Rng rng = Rng(options_.seed).Fork(0xDA40);
      rng.Shuffle(&perm);
    } else {
      // Next day: bounded drift — a few random rank transpositions.
      perm = day_perms_.back();
      Rng rng = Rng(options_.seed).Fork(0xDA41 + day_perms_.size());
      size_t swaps = static_cast<size_t>(
          options_.day_drift * static_cast<double>(perm.size()));
      for (size_t s = 0; s < swaps; ++s) {
        size_t a = rng.Uniform(perm.size());
        size_t b = rng.Uniform(perm.size());
        std::swap(perm[a], perm[b]);
      }
    }
    std::vector<uint32_t> home(perm.size());
    for (size_t rank = 0; rank < perm.size(); ++rank) {
      home[rank] = static_cast<uint32_t>(HomeRouter(perm[rank]));
    }
    std::vector<uint8_t> bucket_home(ZipfSampler::kBuckets);
    for (size_t b = 0; b < bucket_home.size(); ++b) {
      const size_t rank = popularity_.BucketRank(b);
      bucket_home[b] = rank == ZipfSampler::kSplit
                           ? kSplitHome
                           : static_cast<uint8_t>(home[rank]);
    }
    day_perms_.push_back(std::move(perm));
    day_homes_.push_back(std::move(home));
    day_bucket_homes_.push_back(std::move(bucket_home));
  }
  return day_perms_[day];
}

size_t FlowGenerator::RankOnDay(int day, size_t prefix_idx) {
  const auto& perm = DayPermutation(day);
  for (size_t rank = 0; rank < perm.size(); ++rank) {
    if (perm[rank] == prefix_idx) return rank;
  }
  MIND_LOG(Fatal) << "prefix index out of range";
  return 0;
}

double FlowGenerator::HourNoise(int day, int router, int hour) {
  // Deterministic per-(day, router, hour) log-normal multiplier.
  uint64_t key = (static_cast<uint64_t>(day) << 32) ^
                 (static_cast<uint64_t>(router) << 8) ^
                 static_cast<uint64_t>(hour);
  Rng rng = Rng(options_.seed).Fork(0xA0153 ^ key);
  return rng.LogNormal(0.0, options_.hour_noise_sigma);
}

void FlowGenerator::Generate(
    int day, double t0_sec, double t1_sec,
    const std::function<void(const FlowRecord&)>& emit) {
  MIND_CHECK(t0_sec >= 0 && t1_sec <= 86400.0 && t0_sec <= t1_sec);
  const auto& perm = DayPermutation(day);
  const std::vector<uint32_t>& home = day_homes_[static_cast<size_t>(day)];
  const std::vector<uint8_t>& bucket_home =
      day_bucket_homes_[static_cast<size_t>(day)];
  uint64_t window_key = (static_cast<uint64_t>(day) << 20) ^
                        (static_cast<uint64_t>(t0_sec * 16));
  Rng rng = Rng(options_.seed).Fork(0xF70 ^ window_key);

  // Per-hour hot-set successor tables, built on first use in this call:
  // next_hot[hour][i] is the first hot prefix index >= i (cyclic), or i
  // itself when the hour has no hot prefix. hour < 24 as t1_sec <= 86400.
  const size_t n_prefixes = prefixes_.size();
  std::vector<std::vector<uint32_t>> next_hot(24);
  auto hot_successors = [&](int hour) -> const std::vector<uint32_t>& {
    std::vector<uint32_t>& succ = next_hot[hour];
    if (succ.empty()) {
      succ.resize(n_prefixes);
      // Right-to-left; the second pass wraps the tail past the last hot
      // index round to the first one.
      size_t next = n_prefixes;  // none hot yet
      for (size_t pass = 0; pass < 2; ++pass) {
        for (size_t i = n_prefixes; i-- > 0;) {
          if (InHotSet(i, hour)) next = i;
          succ[i] = static_cast<uint32_t>(next == n_prefixes ? i : next);
        }
      }
    }
    return succ;
  };

  // Generate flow arrivals router by router (arrivals are attributed to the
  // source prefix's home router; the destination's home router observes the
  // same flow too).
  const size_t n_routers = topology_.size();
  for (size_t r = 0; r < n_routers; ++r) {
    double rate = options_.peak_flows_per_router_sec;
    double t = t0_sec;
    int noise_hour = -1;  // HourNoise is a pure function of (day, r, hour)
    double noise = 0.0;
    while (t < t1_sec) {
      int hour = static_cast<int>(t / 3600.0);
      if (hour != noise_hour) {
        noise = HourNoise(day, static_cast<int>(r), hour);
        noise_hour = hour;
      }
      double level = diurnal_.At(t) * noise;
      double lambda = std::max(1e-6, rate * level);
      t += rng.Exponential(lambda);
      if (t >= t1_sec) break;

      // Source prefix: a prefix homed at router r, biased by popularity.
      // Sample global ranks until one homed here (bounded retries), else
      // pick a uniform local prefix. A try is one draw, settled by its
      // bucket's home byte unless that byte matches r or marks a split
      // bucket; only then is the draw mapped to a rank.
      size_t src_idx = prefixes_.size();
      for (int attempt = 0; attempt < 8; ++attempt) {
        const uint64_t x = rng.Next();
        const uint8_t h = bucket_home[ZipfSampler::Bucket(x)];
        if (h != r && h != kSplitHome) continue;
        const size_t rank = popularity_.RankOfDraw(x);
        if (home[rank] == r) {
          src_idx = perm[rank];
          break;
        }
      }
      if (src_idx == prefixes_.size()) {
        src_idx = r + n_routers * rng.Uniform(
                          static_cast<uint64_t>(options_.prefixes_per_router));
      }
      // Destination prefix: half the traffic follows the hour's hot set
      // (the mixture that shifts hour-to-hour but repeats day-to-day), the
      // rest is popularity-weighted over the whole universe (gravity model).
      size_t dst_idx;
      if (rng.Bernoulli(options_.hot_set_fraction)) {
        // A uniform pick moved to the next hot prefix at or after it.
        dst_idx = hot_successors(hour)[rng.Uniform(n_prefixes)];
      } else {
        dst_idx = perm[popularity_.Sample(&rng)];
      }

      // Address and port draws, in the stream's order; they become field
      // values only for a flow that some router keeps.
      const uint64_t src_ip_draw =
          UniformDraw(&rng, prefixes_[src_idx].Size());
      const uint64_t dst_ip_draw =
          UniformDraw(&rng, prefixes_[dst_idx].Size());
      const uint64_t src_port_draw = UniformDraw(&rng, kEphemeralPorts);
      const uint64_t dst_port_draw = rng.Next();  // port_popularity_'s draw
      // A short flow's size is one uniform draw. A long flow or an elephant
      // (a bulk transfer: the alpha-flow population of Index-2) keeps its
      // Pareto u, and its pow waits until some keep draw can pass.
      const SizeLaw* law = nullptr;
      double pareto_u = 0.0;
      double raw_bytes = 0.0;
      if (rng.Bernoulli(options_.short_flow_fraction)) {
        raw_bytes = 40.0 + rng.UniformDouble() * 400.0;
      } else {
        law = rng.Bernoulli(options_.elephant_fraction) ? &elephant_law_
                                                        : &long_law_;
        pareto_u = ParetoU(&rng);
      }

      // The flow is observed (subject to per-network packet sampling) at the
      // source's and the destination's home routers, one keep draw each.
      const int observers[2] = {static_cast<int>(r), HomeRouter(dst_idx)};
      const int n_obs = observers[0] == observers[1] ? 1 : 2;
      Backbone backbones[2] = {};
      double keep_draws[2] = {};
      for (int o = 0; o < n_obs; ++o) {
        backbones[o] = topology_.router(observers[o]).backbone;
        keep_draws[o] = rng.UniformDouble();
      }
      if (law != nullptr) {
        // Scaling by a power of two is exact: j = floor(u * 2^kSizeBits).
        const size_t j = static_cast<size_t>(pareto_u * (1 << kSizeBits));
        bool keep_possible = false;
        for (int o = 0; o < n_obs; ++o) {
          const size_t b = static_cast<size_t>(backbones[o]);
          keep_possible |= keep_draws[o] < law->keep_bound[b][j];
        }
        if (!keep_possible) continue;
        raw_bytes = ParetoBytes(law->scale, law->shape, pareto_u);
      }
      const uint32_t raw_packets = RawPackets(raw_bytes);

      FlowRecord f;
      bool filled = false;
      for (int o = 0; o < n_obs; ++o) {
        if (!(keep_draws[o] < KeepProbability(backbones[o], raw_packets))) {
          continue;
        }
        if (!filled) {
          const IpPrefix& src = prefixes_[src_idx];
          const IpPrefix& dst = prefixes_[dst_idx];
          f.src_ip =
              src.First() + static_cast<IpAddr>(src_ip_draw % src.Size());
          f.dst_ip =
              dst.First() + static_cast<IpAddr>(dst_ip_draw % dst.Size());
          f.src_port =
              static_cast<uint16_t>(1024 + src_port_draw % kEphemeralPorts);
          f.dst_port =
              common_ports_[port_popularity_.RankOfDraw(dst_port_draw)];
          f.time_sec = static_cast<double>(day) * 86400.0 + t;
          filled = true;
        }
        const double p = Topology::SamplingRate(backbones[o]);
        FlowRecord obs = f;
        obs.router = observers[o];
        // NetFlow with sampling reports the sampled volume.
        obs.bytes = static_cast<uint64_t>(std::max(40.0, raw_bytes * p));
        obs.packets = static_cast<uint32_t>(
            std::max(1.0, static_cast<double>(raw_packets) * p));
        emit(obs);
      }
    }

    // Endemic background scanning from this router's customers (worm and
    // scan noise): bursts of tiny probes toward one destination prefix.
    double expected_scans =
        options_.scans_per_router_hour * (t1_sec - t0_sec) / 3600.0;
    uint64_t n_scans = rng.Poisson(expected_scans);
    for (uint64_t s = 0; s < n_scans; ++s) {
      double t_start = t0_sec + rng.UniformDouble() * (t1_sec - t0_sec);
      double t_end = std::min(t1_sec, t_start + 5.0 + rng.UniformDouble() * 25.0);
      size_t src_idx =
          r + n_routers * rng.Uniform(
                  static_cast<uint64_t>(options_.prefixes_per_router));
      size_t dst_idx = rng.Uniform(prefixes_.size());
      IpAddr scanner = prefixes_[src_idx].First() +
                       static_cast<IpAddr>(rng.Uniform(prefixes_[src_idx].Size()));
      double raw_probes = std::clamp(
          options_.scan_probes_scale * rng.Pareto(1.0, 1.3), 100.0, 200000.0);
      uint16_t port = rng.Bernoulli(0.5) ? 445 : 3306;

      int observers[2] = {static_cast<int>(r), HomeRouter(dst_idx)};
      int n_obs = observers[0] == observers[1] ? 1 : 2;
      for (int o = 0; o < n_obs; ++o) {
        int router = observers[o];
        double p = Topology::SamplingRate(topology_.router(router).backbone);
        uint64_t k = rng.Poisson(raw_probes * p);
        for (uint64_t i = 0; i < k; ++i) {
          FlowRecord f;
          f.src_ip = scanner;
          f.dst_ip = prefixes_[dst_idx].First() +
                     static_cast<IpAddr>(rng.Uniform(prefixes_[dst_idx].Size()));
          f.src_port = 40000;
          f.dst_port = port;
          f.bytes = 40 + rng.Uniform(20);
          f.packets = 1;
          f.time_sec = static_cast<double>(day) * 86400.0 + t_start +
                       rng.UniformDouble() * (t_end - t_start);
          f.router = router;
          emit(f);
        }
      }
    }
  }
}

std::vector<FlowRecord> FlowGenerator::GenerateVec(int day, double t0_sec,
                                                   double t1_sec) {
  std::vector<FlowRecord> out;
  Generate(day, t0_sec, t1_sec,
           [&out](const FlowRecord& f) { out.push_back(f); });
  return out;
}

}  // namespace mind
