// Synthetic backbone trace generator, replacing the paper's Abilene/GÉANT
// NetFlow datasets (DESIGN.md §2).
//
// Statistical properties reproduced (each feeds a specific experiment):
//  * heavy-tailed flow sizes (Pareto) and Zipf prefix popularity -> the
//    storage skew of Figure 2 and the balancing gains of Figure 13;
//  * gravity-model origin-destination matrix over prefixes homed at real
//    routers -> per-monitor streams and the §5 "which monitors saw it" lists;
//  * diurnal rate modulation, stable popularity ranks with bounded day-to-day
//    drift, and per-hour mixture noise -> the mismatch behaviour of Figure 3
//    (small day-to-day, near-1 hour-to-hour at fine granularity);
//  * packet sampling (1/100 Abilene, 1/1000 GÉANT) -> the traffic imbalance
//    of Figure 12.
#ifndef MIND_TRAFFIC_FLOW_GENERATOR_H_
#define MIND_TRAFFIC_FLOW_GENERATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "traffic/flow.h"
#include "traffic/topology.h"
#include "util/rng.h"

namespace mind {

struct FlowGeneratorOptions {
  /// Customer prefixes homed per router (prefix universe size = routers x this).
  int prefixes_per_router = 8;
  /// Prefix length of the customer blocks.
  int prefix_len = 16;
  /// Peak (diurnal max) flow arrival rate per router, flows/second, before
  /// sampling.
  double peak_flows_per_router_sec = 60.0;
  /// Zipf exponent for prefix popularity.
  double popularity_exponent = 0.9;
  /// Pareto shape/scale for flow bytes.
  double flow_bytes_shape = 1.15;
  double flow_bytes_scale = 500.0;
  /// Fraction of prefix-popularity rank pairs transposed per day (drives the
  /// day-to-day mismatch level of Figure 3).
  double day_drift = 0.03;
  /// Log-normal sigma of per-(router, day, hour) rate noise.
  double hour_noise_sigma = 0.12;
  /// Fraction of flows that are short connection attempts (few packets).
  double short_flow_fraction = 0.55;
  /// Fraction of traffic directed at the hour's "hot" prefixes — the
  /// mixture component that shifts hour-to-hour but repeats across days.
  double hot_set_fraction = 0.5;
  /// Fraction of long flows that are "elephants" (bulk transfers) — the
  /// population the paper's Index-2 alpha-flow monitoring tracks.
  double elephant_fraction = 0.003;
  /// Pareto scale of elephant raw bytes.
  double elephant_scale = 2.0e6;
  /// Endemic background scanning (worm/scan noise, ubiquitous on 2004-era
  /// backbones — what populates Index-1): scan bursts per router-hour.
  double scans_per_router_hour = 6.0;
  /// Pareto scale of raw probes per scan burst.
  double scan_probes_scale = 2000.0;
  /// Night-time fraction of peak rate.
  double diurnal_floor = 0.35;
  uint64_t seed = 0xf10f;
};

/// \brief Deterministic synthetic NetFlow source for a topology.
class FlowGenerator {
 public:
  FlowGenerator(const Topology& topology, FlowGeneratorOptions options);

  const Topology& topology() const { return topology_; }
  const FlowGeneratorOptions& options() const { return options_; }

  size_t prefix_count() const { return prefixes_.size(); }
  const IpPrefix& prefix(size_t i) const { return prefixes_[i]; }
  /// Router index a prefix is homed at.
  int HomeRouter(size_t prefix_idx) const {
    return static_cast<int>(prefix_idx % topology_.size());
  }

  /// Generates the raw sampled flow records observed across all routers in
  /// [t0_sec, t1_sec) of `day`, invoking `emit` per record in time order per
  /// router batch. A logical flow is observed at both endpoint home routers.
  void Generate(int day, double t0_sec, double t1_sec,
                const std::function<void(const FlowRecord&)>& emit);

  /// Convenience: materializes a window's records.
  std::vector<FlowRecord> GenerateVec(int day, double t0_sec, double t1_sec);

  /// The popularity rank of a prefix on a given day (rank 0 most popular);
  /// exposes the day-drift model for tests.
  size_t RankOnDay(int day, size_t prefix_idx);

  /// Whether a prefix belongs to the given hour's hot set.
  bool InHotSet(size_t prefix_idx, int hour) const;

  /// BucketHome of a popularity bucket that a CDF entry splits.
  static constexpr uint8_t kSplitHome = 0xFF;

  /// The home router of the prefix that every popularity draw in
  /// ZipfSampler bucket `bucket` picks on `day`, or kSplitHome when the
  /// bucket is split; a source-prefix try compares it with the arrival
  /// router. Exposed for tests.
  uint8_t BucketHome(int day, size_t bucket) {
    DayPermutation(day);
    return day_bucket_homes_[static_cast<size_t>(day)][bucket];
  }

  /// Flows with fewer raw packets than this read their keep probability
  /// from a table; larger ones compute it.
  static constexpr uint32_t kKeepTablePackets = 256;

  /// The chance that a flow of `packets` raw packets leaves at least one
  /// sampled packet on backbone `b`: 1 - (1 - p)^packets at the backbone's
  /// sampling rate p. Tabled values are that same expression, computed once.
  double KeepProbability(Backbone b, uint32_t packets) const {
    return packets < kKeepTablePackets
               ? keep_[static_cast<size_t>(b)][packets]
               : KeepFormula(Topology::SamplingRate(b), packets);
  }

 private:
  static double KeepFormula(double p, uint32_t packets);

  // A Pareto flow-size law as Generate draws it: raw bytes
  // min(5e8, scale / u^(1 / shape)) for u = UniformDouble() > 0.
  struct SizeLaw {
    double scale = 0.0;
    double shape = 0.0;
    // keep_bound[backbone][j] bounds KeepProbability(backbone, packets)
    // from above for every flow whose u lies in [j, j + 1) * 2^-kSizeBits.
    std::array<std::vector<double>, 2> keep_bound;
  };
  static constexpr int kSizeBits = 12;
  SizeLaw MakeSizeLaw(double scale, double shape) const;
  const std::vector<size_t>& DayPermutation(int day);
  double HourNoise(int day, int router, int hour);

  Topology topology_;
  FlowGeneratorOptions options_;
  std::vector<IpPrefix> prefixes_;
  ZipfSampler popularity_;
  DiurnalCurve diurnal_;
  // perm[day][rank] = prefix index at that rank
  std::vector<std::vector<size_t>> day_perms_;
  // home[day][rank] = HomeRouter(perm[day][rank]), built with each day's
  // permutation: a source-prefix try whose bucket home matches or is split
  // compares this, and reads perm only on a hit.
  std::vector<std::vector<uint32_t>> day_homes_;
  // day_bucket_homes_[day][b] = home[day][popularity_.BucketRank(b)], or
  // kSplitHome for a split bucket.
  std::vector<std::vector<uint8_t>> day_bucket_homes_;
  // keep_[backbone][n] = KeepFormula(SamplingRate(backbone), n).
  std::array<std::array<double, kKeepTablePackets>, 2> keep_{};
  SizeLaw long_law_;
  SizeLaw elephant_law_;
  std::vector<uint16_t> common_ports_;
  ZipfSampler port_popularity_;
};

}  // namespace mind

#endif  // MIND_TRAFFIC_FLOW_GENERATOR_H_
