// Sharded parallel discrete-event engine under conservative time windows.
//
// Hosts are partitioned into S shards by id (id % S); each shard owns its own
// EventQueue. Each window, every shard s gets a private horizon
//
//   W_s = min over shards r != s with pending work of (t_r + L[r][s])
//
// where t_r is shard r's earliest pending event and L[r][s] is the minimum
// network latency from any host of r to any host of s. Any message r sends
// carries a timestamp >= t_r, so it arrives at s at or after t_r + L[r][s]
// >= W_s: shard s can safely execute everything strictly before W_s without
// hearing from anyone. This per-shard horizon strictly dominates the classic
// global window [T, T + min-latency) — a shard whose inbound links are slow
// (or whose peers are idle far in the future) runs far ahead in one window
// instead of being dragged along at the global pace.
//
// Horizons are additionally capped at T + m * lookahead where T is the global
// minimum pending time and m is an adaptive multiplier: it doubles after a
// window whose cross-shard exchange was sparse and halves after a dense one
// (kSparse/kDenseExchangeFactor). The multiplier is driven purely by
// committed per-window simulation statistics — never by wall-clock — so the
// window sequence, and hence every statistic derived from it, is identical
// across thread counts and across runs.
//
// Cross-shard sends are buffered per source shard and exchanged at the window
// barrier in deterministic (source shard, append order) order — and, more
// importantly, carry engine-independent ordering keys (see
// EventQueue::ScheduleAtKeyed), so the destination's execution order does not
// depend on exchange order at all.
//
// Determinism strategy: the shard count S is picked once at startup
// (DefaultShardCount) and fixed independently of the worker thread count.
// Each shard's event sequence is fully determined by its own queue contents
// plus the keyed cross-shard messages it receives, so any assignment of
// shards to threads — 1 worker or 8, in any claim order — executes the
// identical computation. Cross-thread bit-identity therefore holds by
// construction; the interesting proof obligation (discharged by
// tools/check_determinism.sh) is identity against the *sequential* engine,
// which rests on the network's delivery discipline: keyed event ordering and
// counter-based per-link RNG streams (see Network).
//
// This file is the one place in src/{sim,overlay,mind,space,storage} allowed
// to use raw threading primitives (see tools/analyze/checks.py, rule
// "concurrency").
#ifndef MIND_SIM_PARALLEL_ENGINE_H_
#define MIND_SIM_PARALLEL_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/time.h"

namespace mind {

class Network;

/// A result handed over to client code (a query callback), ordered by
/// (sim time of the completion, key) — DESIGN.md §9.
struct Delivery {
  SimTime t = 0;
  uint64_t key = 0;
  std::function<void()> fn;
};

/// Runs every delivery of `batch` in (t, key) order, then empties it.
void RunDeliveries(std::vector<Delivery>* batch);

/// Aggregate engine statistics, all derived from simulation-deterministic
/// quantities except the barrier-wait timings (wall-clock, diagnostic only).
struct EngineStats {
  uint64_t windows = 0;        ///< parallel windows executed
  uint64_t events = 0;         ///< events fired across all shards
  uint64_t exchanged = 0;      ///< cross-shard messages exchanged at barriers
  uint64_t solo_windows = 0;   ///< windows with one runnable shard (no barrier)
  uint64_t widened_windows = 0;  ///< windows run with cap multiplier > 1
  uint64_t max_multiplier = 1;   ///< peak adaptive cap multiplier reached
  /// log2 histogram of per-window exchanged message counts; bucket b counts
  /// windows with floor(log2(msgs)) == b - 1, bucket 0 counts empty windows.
  std::array<uint64_t, 24> exchange_size_log2{};
  /// log2 histogram of per-window orchestrator barrier-wait nanoseconds.
  std::array<uint64_t, 32> barrier_wait_log2_ns{};
  uint64_t barrier_wait_ns_total = 0;
  /// Events fired per shard over the engine's lifetime (imbalance metric).
  std::vector<uint64_t> shard_events;
};

/// \brief Windowed parallel executor over per-shard event queues.
///
/// Owned by Simulator when SimulatorOptions::threads > 0; not intended for
/// standalone construction by user code.
class ParallelEngine {
 public:
  /// Shard-count floor. The shard partition is part of the simulated world's
  /// identity (it fixes the host->queue mapping), but digests are partition-
  /// independent (see file comment), so the default count may adapt to the
  /// machine; it just never drops below this floor so small hosts still
  /// exercise real cross-shard traffic.
  static constexpr int kDefaultShards = 8;
  /// Cap for the automatic shard count: per-window horizon computation is
  /// O(S^2) and exchange is O(S), so unbounded growth on large machines
  /// would tax every window.
  static constexpr int kMaxAutoShards = 32;

  /// Shard count used when the caller does not pin one: twice the hardware
  /// concurrency (so dynamic executors have slack to balance), clamped to
  /// [kDefaultShards, kMaxAutoShards]. Machines up to 4 cores therefore keep
  /// the historical 8-shard partition.
  static int DefaultShardCount();

  /// `threads` >= 1 workers; `shards` == 0 picks DefaultShardCount().
  ParallelEngine(EventQueue* control, Network* network, int threads,
                 int shards);
  ~ParallelEngine();
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int shard_count() const { return static_cast<int>(queues_.size()); }
  int threads() const { return threads_; }
  int ShardOf(NodeId id) const {
    return static_cast<int>(static_cast<uint32_t>(id) %
                            static_cast<uint32_t>(queues_.size()));
  }
  EventQueue* queue_for(NodeId id) { return queues_[ShardOf(id)].get(); }
  EventQueue& shard_queue(int s) { return *queues_[s]; }
  const EventQueue& shard_queue(int s) const { return *queues_[s]; }

  /// True while shard workers are executing a window. Network uses this to
  /// reject world mutations (SetNodeUp, SetLatency, ...) that would race.
  bool in_parallel_phase() const { return in_parallel_phase_; }

  /// Shard the calling thread is currently executing, or -1 in serial
  /// context (the orchestrating thread between windows).
  static int current_shard();

  /// Schedules a keyed event on `owner`'s shard queue. During a parallel
  /// phase a cross-shard schedule is buffered in the calling shard's outbox
  /// and exchanged at the barrier; everything else goes straight in.
  void ScheduleKeyed(NodeId owner, SimTime t, uint8_t band, uint64_t ukey,
                     EventFn fn);

  /// Defers `fn`, a result delivery made by the calling shard worker, to
  /// the orchestrator. At each window barrier the orchestrator runs, in
  /// serial context and in (completion time, key) order, every held
  /// delivery that lies before every shard's next event — so the order is
  /// global and independent of which executor ran which shard. Shard
  /// clocks already stand at the window end then, so a delivery may only
  /// record: one that schedules or cancels an event fails a MIND_CHECK.
  /// Requires a shard worker context.
  void Defer(uint64_t key, std::function<void()> fn);

  /// Windowed equivalents of EventQueue::Run / RunUntil across all shards.
  /// Run's `limit` is enforced at window granularity. When the queues run
  /// dry or the RunUntil target is reached, every completed delivery has
  /// run; a Run that stops on its limit may hold some for the next run.
  size_t Run(size_t limit);
  size_t RunUntil(SimTime t);

  /// Hook invoked in serial context at the first barrier at or after every
  /// `interval` of virtual time (periodic invariant validation). All shard
  /// clocks agree when it runs: the engine clamps horizons to the hook time,
  /// so the window that reaches it is a synchronization point.
  void set_barrier_hook(std::function<void()> hook, SimTime interval) {
    barrier_hook_ = std::move(hook);
    barrier_interval_ = interval;
    next_hook_ = control_->now() + interval;
  }

  /// The conservative lookahead: minimum latency between hosts of different
  /// shards (computed lazily, recomputed when hosts are added or latencies
  /// are overridden). Also the unit of the adaptive window cap.
  SimTime lookahead();

  /// Engine statistics accumulated since construction (see EngineStats).
  const EngineStats& stats() const { return stats_; }

  /// Sparse-exchange threshold: a window whose barrier exchanged at most
  /// shard_count * this many messages doubles the cap multiplier.
  static constexpr uint64_t kSparseExchangeFactor = 1;
  /// Dense-exchange threshold: at least shard_count * this halves it.
  static constexpr uint64_t kDenseExchangeFactor = 8;
  /// Ceiling for the adaptive cap multiplier.
  static constexpr uint64_t kMaxCapMultiplier = 1024;

 private:
  struct Pending {
    SimTime t = 0;
    uint64_t ukey = 0;
    int dst = 0;
    uint8_t band = 0;
    EventFn fn;
  };

  /// Per-shard per-window state, cache-line-padded: `outbox`, `deliveries`
  /// and `fired` are written by whichever executor claims the shard, `wend`
  /// is read-only during the phase. Padding keeps two executors finishing
  /// adjacent shards from bouncing one line.
  struct alignas(64) ShardLane {
    std::vector<Pending> outbox;  // cross-shard sends, drained at the barrier
    std::vector<Delivery> deliveries;  // result deliveries, run at the barrier
    uint64_t fired = 0;           // events executed this window
    SimTime wend = 0;             // this shard's window end (exclusive)
    SimTime next_time = 0;        // earliest pending event (serial scratch)
    bool has_next = false;
    bool runnable = false;        // next_time < wend, executes this window
  };

  size_t RunWindows(SimTime target, bool bounded, size_t limit);
  // Claims shards of the current window's active list (sorted longest
  // processing time first) from the shared cursor and executes them until
  // the list is exhausted. Called by the orchestrating thread and by every
  // helper thread.
  void RunShardsInWindow();
  void RunOneShard(int s);
  // Collects every shard's new deliveries and runs, in serial context and
  // (t, key) order, the held ones with t < bound (Defer).
  void DrainDeliveries(SimTime bound);
  void EnsureWorkers();
  void WorkerLoop();
  // Releases helpers for one window and waits for them to finish, recording
  // the orchestrator's wait time in stats_. Requires workers_ non-empty.
  void RunWindowParallel();
  // Recomputes lookahead_ and the shard-pair latency matrix from the
  // network's current host set and latency overrides.
  void ComputeLookahead();

  EventQueue* control_;
  Network* network_;
  int threads_;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<ShardLane> lanes_;  // indexed by shard
  std::vector<Delivery> held_;    // deferred deliveries not yet final
  std::vector<Delivery> ready_;   // DrainDeliveries scratch, reused
  // Minimum host-to-host latency from shard r to shard s at r*S+s;
  // UINT64_MAX where no host pair exists. Recomputed with lookahead_.
  std::vector<SimTime> latency_matrix_;
  SimTime lookahead_ = 0;
  size_t lookahead_host_count_ = 0;
  uint64_t lookahead_generation_ = 0;  // Network::latency_generation snapshot
  uint64_t cap_multiplier_ = 1;        // adaptive window cap, in lookaheads
  std::function<void()> barrier_hook_;
  SimTime barrier_interval_ = 0;
  SimTime next_hook_ = 0;
  EngineStats stats_;
  // Plain fields published to workers via the epoch_ release/acquire pair.
  bool in_parallel_phase_ = false;
  std::vector<int> active_;  // shard ids runnable this window (claim order)
  alignas(64) std::atomic<size_t> claim_{0};    // shared LPT claim cursor
  std::vector<std::thread> workers_;  // threads_ - 1 helpers; main is exec 0
  // Hybrid spin/condvar barrier. Workers spin briefly on epoch_, then sleep
  // on wake_cv_; the orchestrator bumps epoch_ under wake_mu_ so a worker
  // can never recheck-then-sleep across the bump (no lost wakeups). The
  // done-side is symmetric with orch_waiting_ announcing the sleep
  // (seq_cst on both sides, Dekker-style) so workers only touch done_mu_
  // when the orchestrator actually went to sleep.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> orch_waiting_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace mind

#endif  // MIND_SIM_PARALLEL_ENGINE_H_
