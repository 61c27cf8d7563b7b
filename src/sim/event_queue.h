// The discrete-event core: a virtual clock plus a priority queue of
// timestamped callbacks. Deterministic: same-time events fire in (band, ukey)
// key order, remaining ties by insertion order.
//
// Internals are built for the hot path (one Schedule + one fire per network
// message, millions per run):
//  * closures are EventFn (64-byte inline buffer) — no per-event malloc;
//  * events live in a slot array with a free list; the heap orders slot
//    indices, so heap moves shuffle 4-byte ints, never closures;
//  * Cancel is lazy: the slot is marked dead (its closure destroyed
//    immediately) and skipped at pop, with no tombstone hash set;
//  * when dead entries exceed half the heap, the heap is compacted in one
//    O(n) pass, so a cancel-heavy workload (timers) cannot grow memory.
#ifndef MIND_SIM_EVENT_QUEUE_H_
#define MIND_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace mind {

/// Opaque handle: generation in the high 32 bits, slot+1 in the low 32, so a
/// valid id is never 0 (callers use 0 as "no event"). Slot reuse bumps the
/// generation, which makes a stale Cancel on a reused slot a no-op.
using EventId = uint64_t;

/// \brief Virtual clock + event queue.
///
/// Components schedule callbacks at future virtual times; Run() drains the
/// queue in timestamp order, advancing the clock. Events can be cancelled by
/// id (used for timers such as heartbeats and retry backoffs).
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime now() const { return now_; }

  /// Ordering bands within one timestamp (ScheduleAtKeyed): a host's local
  /// timers, then message deliveries, then send-failure notifications, then
  /// local work that must observe every same-instant network event, then
  /// the hand-over of the instant's query results to client code
  /// (Simulator::Deliver).
  static constexpr uint8_t kBandLocal = 0;
  static constexpr uint8_t kBandDelivery = 1;
  static constexpr uint8_t kBandNotify = 2;
  static constexpr uint8_t kBandSettle = 3;
  static constexpr uint8_t kBandResults = 4;

  /// Schedules `fn` to run at absolute virtual time `t` (>= now).
  EventId ScheduleAt(SimTime t, EventFn fn) {
    return ScheduleAtKeyed(t, kBandLocal, 0, std::move(fn));
  }

  /// Schedules `fn` at `t` with an explicit ordering key. Events fire in
  /// (time, band, ukey, insertion seq) order; plain ScheduleAt uses
  /// (kBandLocal, ukey 0), so its relative order is pure insertion order.
  /// The network keys message deliveries by engine-independent values
  /// (band, sender, per-link send index) so the same-timestamp event order
  /// at a host is identical whether the run is sequential or sharded across
  /// threads.
  EventId ScheduleAtKeyed(SimTime t, uint8_t band, uint64_t ukey, EventFn fn);

  /// Schedules `fn` to run `delay` after now.
  EventId Schedule(SimTime delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event; no-op if already fired or cancelled. The
  /// closure is destroyed immediately (releasing captured resources); the
  /// heap entry is reclaimed lazily.
  void Cancel(EventId id);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events fired.
  size_t Run(size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= t, then advances the clock to exactly t.
  size_t RunUntil(SimTime t);

  /// Runs events with timestamp strictly < t, leaving the clock at the last
  /// fired event. The parallel engine's window primitive: a shard executes
  /// the half-open window [now, t), and the engine aligns all shard clocks
  /// with AdvanceTo at the barrier.
  size_t RunUntilBefore(SimTime t);

  /// Advances the clock to max(now, t) without firing anything. Used at
  /// window barriers so every shard clock agrees before cross-shard events
  /// are admitted.
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Timestamp of the next live event; false if the queue is drained.
  bool PeekNextTime(SimTime* t) { return PeekTime(t); }

  /// Fires the single next event, if any. Returns true if one fired.
  bool Step();

  bool empty() const { return live_count_ == 0; }
  size_t pending() const { return live_count_; }

  /// Events scheduled over the queue's lifetime (cancelled ones included).
  uint64_t scheduled_count() const { return next_seq_; }

  /// True while Run, RunUntil, RunUntilBefore or Step is firing events:
  /// code reached from an event handler sees true, code calling in between
  /// runs sees false.
  bool running() const { return running_; }

  /// Introspection for the memory-regression tests: physical sizes of the
  /// slot array and the heap (live + not-yet-reclaimed dead entries).
  size_t slot_count() const { return slots_.size(); }
  size_t heap_size() const { return heap_.size(); }

  /// Optional counter bumped once per fired event (`sim.events.processed`).
  void set_run_counter(telemetry::Counter* c) { run_counter_ = c; }

  /// Registers a hook invoked after an event fires whenever at least
  /// `interval` of virtual time has passed since the previous invocation
  /// (piggybacked on the run loop, so it never keeps the queue non-empty).
  /// The hook typically MIND_CHECK_OKs a ValidateInvariants() sweep. Pass a
  /// null hook to disable.
  void set_validation_hook(std::function<void()> hook, SimTime interval) {
    validation_hook_ = std::move(hook);
    validation_interval_ = interval;
    next_validation_ = now_ + interval;
  }

  /// Checks internal consistency: heap order over the full ordering key,
  /// every slot on exactly one of {heap, free list}, free list acyclic and
  /// dead-only, live/dead counters matching slot flags, no live event in the
  /// past, and live sequence numbers unique and <= the allocation high-water
  /// mark.
  /// Returns OK trivially when MIND_VALIDATORS is off (see util/validate.h).
  Status ValidateInvariants() const;

  /// Appends the (time, band, ukey) triple of every live event to `out`
  /// (unsorted). These keys are engine-independent: per-queue insertion
  /// sequence numbers differ between a single global queue and per-shard
  /// queues, but the keyed triples do not. StateDigest sorts the union
  /// across all shard queues and digests that.
  void CollectKeyed(std::vector<std::array<uint64_t, 3>>* out) const;

 private:
  friend class EventQueueTestPeek;  // corruption injection in validator tests

  struct Slot {
    SimTime time = 0;
    uint64_t seq = 0;       // per-queue insertion order; the final tie-breaker
    uint64_t ukey = 0;      // engine-independent key within (time, band)
    uint32_t gen = 0;       // bumped on release; validates EventIds
    uint32_t next_free = kNone;
    uint8_t band = 0;       // ordering band within a timestamp (0 = local)
    bool live = false;
    EventFn fn;
  };
  static constexpr uint32_t kNone = UINT32_MAX;

  static EventId MakeId(uint32_t gen, uint32_t slot) {
    return (static_cast<uint64_t>(gen) << 32) | (slot + 1);
  }
  // Slot index of a handle, or kNone if the handle is stale/invalid.
  uint32_t DecodeLive(EventId id) const;

  bool Before(uint32_t a, uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.time != sb.time) return sa.time < sb.time;
    if (sa.band != sb.band) return sa.band < sb.band;
    if (sa.ukey != sb.ukey) return sa.ukey < sb.ukey;
    return sa.seq < sb.seq;
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  // Removes heap_[0] (caller owns the slot afterwards).
  void HeapPopRoot();
  // Returns a slot to the free list and invalidates outstanding ids.
  void Release(uint32_t slot);
  // Drops every dead entry from the heap in one pass and re-heapifies.
  void Compact();

  // Pops the next live event's slot; returns kNone if the queue is drained.
  uint32_t PopNextSlot();
  // Timestamp of the next live event; false if none (drops dead prefixes).
  bool PeekTime(SimTime* t);

  // Invokes the validation hook if due (called after an event fires).
  void MaybeValidate() {
    if (validation_hook_ && now_ >= next_validation_) {
      validation_hook_();
      next_validation_ = now_ + validation_interval_;
    }
  }

  SimTime now_ = 0;
  // mind-digest: skip(run-loop reentrancy flag; false whenever state is digested)
  bool running_ = false;
  // mind-digest: skip(tie-break allocator; its order is visible via heap_/slots_)
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  // mind-digest: skip(lazy-deletion accounting; heap_/slots_ carry the events)
  size_t dead_in_heap_ = 0;
  // mind-digest: skip(slot free-list head; storage recycling, not sim state)
  uint32_t free_head_ = kNone;
  telemetry::Counter* run_counter_ = nullptr;
  std::function<void()> validation_hook_;
  // mind-digest: skip(validator cadence config; diagnostics, not sim state)
  SimTime validation_interval_ = 0;
  // mind-digest: skip(validator cadence cursor; diagnostics, not sim state)
  SimTime next_validation_ = 0;
  std::vector<uint32_t> heap_;
  std::vector<Slot> slots_;
};

}  // namespace mind

#endif  // MIND_SIM_EVENT_QUEUE_H_
