#include "sim/parallel_engine.h"

#include <algorithm>
#include <chrono>  // mind-lint: allow(wall-clock): barrier-wait diagnostics only, never fed back into simulation state
#include <iterator>

#include "sim/network.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace mind {

namespace {
// Shard the current thread is executing; -1 in serial context. File-local so
// the threading surface stays behind the engine boundary.
thread_local int tls_shard = -1;

// Spin budget before a waiter falls back to its condition variable. Windows
// are typically tens of microseconds apart, so most waits resolve within the
// spin; the condvar leg only pays off on skewed windows and idle periods.
constexpr int kSpinIters = 4000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

inline SimTime SatAdd(SimTime a, SimTime b) {
  SimTime r;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

inline SimTime SatMul(SimTime a, SimTime b) {
  SimTime r;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}

template <size_t N>
inline void BumpLog2(std::array<uint64_t, N>& hist, uint64_t v) {
  size_t bucket =
      v == 0 ? 0
             : std::min<size_t>(static_cast<size_t>(64 - __builtin_clzll(v)),
                                N - 1);
  hist[bucket]++;
}
}  // namespace

void RunDeliveries(std::vector<Delivery>* batch) {
  std::sort(batch->begin(), batch->end(),
            [](const Delivery& a, const Delivery& b) {
              return a.t != b.t ? a.t < b.t : a.key < b.key;
            });
  for (Delivery& d : *batch) d.fn();
  batch->clear();
}

int ParallelEngine::current_shard() { return tls_shard; }

int ParallelEngine::DefaultShardCount() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return kDefaultShards;
  int s = static_cast<int>(2 * hw);
  return std::clamp(s, kDefaultShards, kMaxAutoShards);
}

ParallelEngine::ParallelEngine(EventQueue* control, Network* network,
                               int threads, int shards)
    : control_(control), network_(network), threads_(threads) {
  MIND_CHECK_GE(threads, 1);
  int s = shards > 0 ? shards : DefaultShardCount();
  queues_.reserve(s);
  for (int i = 0; i < s; ++i) queues_.push_back(std::make_unique<EventQueue>());
  lanes_ = std::vector<ShardLane>(s);
  stats_.shard_events.resize(s, 0);
  active_.reserve(s);
}

ParallelEngine::~ParallelEngine() {
  stop_.store(true, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lk(wake_mu_); }  // order the store vs sleepers
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelEngine::ScheduleKeyed(NodeId owner, SimTime t, uint8_t band,
                                   uint64_t ukey, EventFn fn) {
  int dst = ShardOf(owner);
  if (in_parallel_phase_ && tls_shard != dst) {
    MIND_CHECK_GE(tls_shard, 0)
        << "cross-shard schedule from outside a shard worker";
    lanes_[tls_shard].outbox.push_back(
        Pending{t, ukey, dst, band, std::move(fn)});
  } else {
    queues_[dst]->ScheduleAtKeyed(t, band, ukey, std::move(fn));
  }
}

void ParallelEngine::Defer(uint64_t key, std::function<void()> fn) {
  MIND_CHECK_GE(tls_shard, 0) << "Defer outside a shard worker";
  lanes_[tls_shard].deliveries.push_back(
      Delivery{queues_[tls_shard]->now(), key, std::move(fn)});
}

void ParallelEngine::DrainDeliveries(SimTime bound) {
  for (ShardLane& lane : lanes_) {
    for (Delivery& d : lane.deliveries) held_.push_back(std::move(d));
    lane.deliveries.clear();
  }
  auto ready_end = std::partition(
      held_.begin(), held_.end(),
      [bound](const Delivery& d) { return d.t < bound; });
  if (ready_end == held_.begin()) return;
  ready_.assign(std::make_move_iterator(held_.begin()),
                std::make_move_iterator(ready_end));
  held_.erase(held_.begin(), ready_end);
  // Queue footprint: events ever scheduled, events pending. A delivery that
  // schedules or cancels anything moves one of the two sums.
  auto footprint = [this] {
    std::array<uint64_t, 2> f{control_->scheduled_count(), control_->pending()};
    for (const auto& q : queues_) {
      f[0] += q->scheduled_count();
      f[1] += q->pending();
    }
    return f;
  };
  const std::array<uint64_t, 2> before = footprint();
  RunDeliveries(&ready_);
  MIND_CHECK(footprint() == before)
      << "a query callback scheduled or cancelled simulation work under the "
         "parallel engine; callbacks run at the window barrier, after the "
         "shard clocks have moved on, so under this engine they may only "
         "record (DESIGN.md section 9)";
}

SimTime ParallelEngine::lookahead() {
  size_t hosts = network_->host_count();
  if (lookahead_ == 0 || hosts != lookahead_host_count_ ||
      lookahead_generation_ != network_->latency_generation()) {
    ComputeLookahead();
  }
  return lookahead_;
}

void ParallelEngine::ComputeLookahead() {
  size_t n = network_->host_count();
  MIND_CHECK_GT(n, 0u) << "parallel engine needs registered hosts";
  const int S = shard_count();
  latency_matrix_.assign(static_cast<size_t>(S) * S, UINT64_MAX);
  SimTime min_latency = UINT64_MAX;
  // One O(n^2) pass fills both the global minimum (the classic lookahead,
  // still the unit of the adaptive cap) and the per-shard-pair minima that
  // drive the per-shard horizons.
  for (NodeId a = 0; a < static_cast<NodeId>(n); ++a) {
    int sa = ShardOf(a);
    for (NodeId b = 0; b < static_cast<NodeId>(n); ++b) {
      if (a == b) continue;
      int sb = ShardOf(b);
      if (sa == sb) continue;
      SimTime l = network_->Latency(a, b);
      SimTime& cell = latency_matrix_[static_cast<size_t>(sa) * S + sb];
      cell = std::min(cell, l);
      min_latency = std::min(min_latency, l);
    }
  }
  if (min_latency == UINT64_MAX) {
    // All hosts landed in one shard: any window width is conservative.
    min_latency = FromMillis(1);
  }
  MIND_CHECK_GE(min_latency, 1u)
      << "zero cross-shard latency leaves no conservative lookahead";
  // Close the matrix under relaying (Floyd-Warshall, S <= kMaxAutoShards so
  // S^3 is trivial): a shard with no pending events is invisible to the
  // horizon minima, yet a message can wake it mid-run and it can relay
  // onward after less than the direct r->s latency. Any causal chain from a
  // pending event in r to an arrival at s takes at least the shortest-path
  // distance D[r][s], so horizons built on the closure are safe against
  // relays through any subset of shards.
  for (int k = 0; k < S; ++k) {
    for (int r = 0; r < S; ++r) {
      SimTime rk = latency_matrix_[static_cast<size_t>(r) * S + k];
      if (rk == UINT64_MAX) continue;
      for (int c = 0; c < S; ++c) {
        SimTime kc = latency_matrix_[static_cast<size_t>(k) * S + c];
        if (kc == UINT64_MAX) continue;
        SimTime& cell = latency_matrix_[static_cast<size_t>(r) * S + c];
        cell = std::min(cell, SatAdd(rk, kc));
      }
    }
  }
  // The diagonal starts at infinity, so the closure leaves D[s][s] = the
  // minimum round-trip cycle through s. That is exactly the echo bound the
  // horizons need: shard s's own execution from t_s can cause an arrival
  // back into s (via any relay chain) no earlier than t_s + D[s][s].
  lookahead_ = min_latency;
  lookahead_host_count_ = n;
  lookahead_generation_ = network_->latency_generation();
}

void ParallelEngine::EnsureWorkers() {
  if (threads_ <= 1 || !workers_.empty()) return;
  workers_.reserve(threads_ - 1);
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

void ParallelEngine::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    // Await the next window (or shutdown): spin briefly, then sleep. The
    // orchestrator bumps epoch_ while holding wake_mu_, so the wait
    // predicate can never observe the old epoch after the bump and then
    // sleep through the notify.
    int spins = 0;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (epoch_.load(std::memory_order_acquire) != seen) break;
      if (++spins >= kSpinIters) {
        std::unique_lock<std::mutex> lk(wake_mu_);
        wake_cv_.wait(lk, [&] {
          return epoch_.load(std::memory_order_acquire) != seen ||
                 stop_.load(std::memory_order_acquire);
        });
        spins = 0;
      } else {
        CpuRelax();
      }
    }
    // The orchestrator waits for all helpers before the next bump, so the
    // epoch moves by exactly one window at a time.
    seen = epoch_.load(std::memory_order_acquire);
    RunShardsInWindow();
    int finished = done_.fetch_add(1, std::memory_order_seq_cst) + 1;
    if (finished >= threads_ - 1 &&
        orch_waiting_.load(std::memory_order_seq_cst)) {
      // Empty critical section: if the orchestrator is mid-wait it holds
      // done_mu_ until it actually sleeps, so the notify below cannot land
      // in the gap between its predicate check and its sleep.
      { std::lock_guard<std::mutex> lk(done_mu_); }
      done_cv_.notify_one();
    }
  }
}

void ParallelEngine::RunOneShard(int s) {
  tls_shard = s;
  telemetry::SetShardSlot(s + 1);
  lanes_[s].fired = queues_[s]->RunUntilBefore(lanes_[s].wend);
  telemetry::SetShardSlot(0);
  tls_shard = -1;
}

void ParallelEngine::RunShardsInWindow() {
  const size_t n = active_.size();
  for (;;) {
    size_t i = claim_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    RunOneShard(active_[i]);
  }
}

void ParallelEngine::RunWindowParallel() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  RunShardsInWindow();

  const int need = threads_ - 1;
  // mind-lint: allow(wall-clock): measures orchestrator barrier wait for diagnostics; never read by simulation logic
  auto wait_begin = std::chrono::steady_clock::now();
  int spins = 0;
  while (done_.load(std::memory_order_acquire) < need) {
    if (++spins < kSpinIters) {
      CpuRelax();
      continue;
    }
    // Announce the sleep (seq_cst, Dekker-paired with the worker's
    // done_.fetch_add + orch_waiting_ load) so the last finisher knows to
    // take the mutex and notify.
    orch_waiting_.store(true, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] {
      return done_.load(std::memory_order_acquire) >= need;
    });
    orch_waiting_.store(false, std::memory_order_relaxed);
    break;
  }
  // mind-lint: allow(wall-clock): barrier-wait diagnostics only
  auto wait_end = std::chrono::steady_clock::now();
  auto wait_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wait_end -
                                                           wait_begin)
          .count());
  stats_.barrier_wait_ns_total += wait_ns;
  BumpLog2(stats_.barrier_wait_log2_ns, wait_ns);
}

size_t ParallelEngine::RunWindows(SimTime target, bool bounded, size_t limit) {
  MIND_CHECK(!in_parallel_phase_) << "re-entrant parallel run";
  MIND_CHECK(control_->empty())
      << "events pending on the control queue would never fire under the "
         "parallel engine; schedule workload via Simulator::ScheduleOn";
  MIND_CHECK(!network_->has_delay_observer())
      << "delay observers are a sequential-engine feature";
  lookahead();  // compute / refresh the latency matrix
  network_->PresizeLinkTable();  // shard workers must never reallocate it
  EnsureWorkers();
  const int S = shard_count();
  size_t total = 0;
  while (total < limit) {
    // A barrier hook may retarget latencies between windows; the matrix must
    // follow or horizons computed from stale (larger) entries become unsafe.
    if (lookahead_generation_ != network_->latency_generation()) {
      ComputeLookahead();
    }

    // Earliest pending event per shard and globally.
    bool any = false;
    SimTime t_min = 0;
    for (int s = 0; s < S; ++s) {
      ShardLane& lane = lanes_[s];
      lane.has_next = queues_[s]->PeekNextTime(&lane.next_time);
      if (lane.has_next && (!any || lane.next_time < t_min)) {
        t_min = lane.next_time;
        any = true;
      }
    }
    // With per-shard horizons, one window's completions are not all
    // earlier than the next window's. A delivery is final once it lies
    // below every shard's next event: nothing can still complete before it
    // (or tie with it). A run that stops on an exhausted queue or on its
    // RunUntil target therefore delivers everything it completed.
    DrainDeliveries(any ? t_min : UINT64_MAX);
    if (!any || (bounded && t_min > target)) break;

    // Adaptive horizon cap: the window never reaches past
    // t_min + multiplier * lookahead, and never past a due barrier hook.
    // Clamping every horizon to the hook time makes the window that reaches
    // it a full synchronization point (all shard clocks equal), preserving
    // the hook's "clocks agree" contract.
    SimTime cap = SatAdd(t_min, SatMul(cap_multiplier_, lookahead_));
    if (barrier_hook_) {
      SimTime hook_cap = next_hook_ > t_min ? next_hook_ : SatAdd(t_min, 1);
      cap = std::min(cap, hook_cap);
    }

    // Per-shard safe horizons: shard s may run strictly before
    // min over pending r of (t_r + D[r][s]), where D is the shortest-path
    // closure of the shard latency graph and D[s][s] is the minimum
    // round-trip. Every event executed anywhere this window is part of a
    // causal chain rooted at some pending event (t_r, shard r), and each
    // cross-shard hop in the chain pays at least the corresponding latency,
    // so nothing can arrive at s before that bound — including echoes of
    // s's own sends relayed back to it (the r == s term).
    active_.clear();
    for (int s = 0; s < S; ++s) {
      ShardLane& lane = lanes_[s];
      SimTime horizon = UINT64_MAX;
      for (int r = 0; r < S; ++r) {
        if (!lanes_[r].has_next) continue;
        horizon = std::min(
            horizon, SatAdd(lanes_[r].next_time,
                            latency_matrix_[static_cast<size_t>(r) * S + s]));
      }
      SimTime wend = std::min(horizon, cap);
      if (bounded && wend > target) wend = SatAdd(target, 1);  // final window
      lane.wend = wend;
      lane.fired = 0;
      lane.runnable = lane.has_next && lane.next_time < wend;
      if (lane.runnable) active_.push_back(s);
    }
    // The t_min shard always satisfies t_min < wend (every horizon and cap
    // term is >= t_min + 1), so a window always makes progress.
    MIND_CHECK(!active_.empty()) << "window computed with no runnable shard";

    if (active_.size() > 1) {
      // Longest-processing-time order for the shared claim cursor. pending()
      // counts events beyond the horizon too — an estimate, but claim order
      // is pure wall-clock policy, so any order is correct.
      std::sort(active_.begin(), active_.end(), [&](int a, int b) {
        size_t pa = queues_[a]->pending();
        size_t pb = queues_[b]->pending();
        if (pa != pb) return pa > pb;
        return a < b;
      });
    }

    stats_.windows++;
    if (cap_multiplier_ > 1) stats_.widened_windows++;
    if (active_.size() == 1) {
      // Solo window: one shard (often far behind the rest, or briefly alone
      // with pending work) runs on the orchestrator without waking helpers
      // or paying a barrier. With per-shard horizons it can drain all the
      // way to its cap in one window.
      stats_.solo_windows++;
      in_parallel_phase_ = true;
      RunOneShard(active_[0]);
      in_parallel_phase_ = false;
    } else {
      claim_.store(0, std::memory_order_relaxed);
      done_.store(0, std::memory_order_relaxed);
      in_parallel_phase_ = true;
      if (workers_.empty()) {
        RunShardsInWindow();
      } else {
        RunWindowParallel();
      }
      in_parallel_phase_ = false;
    }

    uint64_t window_events = 0;
    for (int s : active_) {
      window_events += lanes_[s].fired;
      stats_.shard_events[s] += lanes_[s].fired;
    }
    total += window_events;
    stats_.events += window_events;

    // Exchange cross-shard sends in (source shard, append order). The
    // destination queue re-checks t >= now, which is exactly the conservative
    // guarantee: everything sent during the window arrives at or after the
    // destination's horizon.
    uint64_t exchanged = 0;
    for (ShardLane& lane : lanes_) {
      for (Pending& p : lane.outbox) {
        queues_[p.dst]->ScheduleAtKeyed(p.t, p.band, p.ukey, std::move(p.fn));
      }
      exchanged += lane.outbox.size();
      lane.outbox.clear();
    }
    stats_.exchanged += exchanged;
    BumpLog2(stats_.exchange_size_log2, exchanged);

    // Adapt the cap from the committed exchange volume — a deterministic
    // function of simulation state, so the window sequence replays exactly
    // regardless of thread count or claim order.
    if (exchanged <= kSparseExchangeFactor * static_cast<uint64_t>(S)) {
      cap_multiplier_ = std::min(cap_multiplier_ * 2, kMaxCapMultiplier);
    } else if (exchanged >= kDenseExchangeFactor * static_cast<uint64_t>(S)) {
      cap_multiplier_ = std::max<uint64_t>(cap_multiplier_ / 2, 1);
    }
    stats_.max_multiplier = std::max(stats_.max_multiplier, cap_multiplier_);

    // Commit per-shard clocks and advance the control (serial) clock to the
    // floor across shards.
    SimTime floor = UINT64_MAX;
    for (int s = 0; s < S; ++s) {
      SimTime clock =
          bounded ? std::min(lanes_[s].wend, target) : lanes_[s].wend;
      queues_[s]->AdvanceTo(clock);
      floor = std::min(floor, queues_[s]->now());
    }
    control_->AdvanceTo(floor);
    if (barrier_hook_ && floor >= next_hook_) {
      barrier_hook_();
      next_hook_ = floor + barrier_interval_;
    }
  }
  if (bounded) {
    for (auto& q : queues_) q->AdvanceTo(target);
    control_->AdvanceTo(target);
  }
  return total;
}

size_t ParallelEngine::Run(size_t limit) { return RunWindows(0, false, limit); }

size_t ParallelEngine::RunUntil(SimTime t) {
  return RunWindows(t, true, SIZE_MAX);
}

}  // namespace mind
