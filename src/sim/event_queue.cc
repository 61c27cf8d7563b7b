#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/validate.h"

namespace mind {

EventId EventQueue::ScheduleAtKeyed(SimTime t, uint8_t band, uint64_t ukey,
                                    EventFn fn) {
  MIND_CHECK_GE(t, now_) << "cannot schedule in the past";
  uint32_t slot;
  if (free_head_ != kNone) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.time = t;
  s.seq = ++next_seq_;
  s.band = band;
  s.ukey = ukey;
  s.live = true;
  s.fn = std::move(fn);
  heap_.push_back(slot);
  SiftUp(heap_.size() - 1);
  ++live_count_;
  return MakeId(s.gen, slot);
}

uint32_t EventQueue::DecodeLive(EventId id) const {
  uint32_t low = static_cast<uint32_t>(id);
  if (low == 0) return kNone;
  uint32_t slot = low - 1;
  if (slot >= slots_.size()) return kNone;
  if (slots_[slot].gen != static_cast<uint32_t>(id >> 32)) return kNone;
  return slot;
}

void EventQueue::Cancel(EventId id) {
  uint32_t slot = DecodeLive(id);
  if (slot == kNone || !slots_[slot].live) return;
  slots_[slot].live = false;
  slots_[slot].fn = EventFn();
  --live_count_;
  ++dead_in_heap_;
  if (dead_in_heap_ > heap_.size() / 2) Compact();
}

void EventQueue::SiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    size_t left = 2 * i + 1;
    if (left >= n) break;
    size_t best = left;
    size_t right = left + 1;
    if (right < n && Before(heap_[right], heap_[left])) best = right;
    if (!Before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void EventQueue::HeapPopRoot() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void EventQueue::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::Compact() {
  size_t w = 0;
  for (uint32_t slot : heap_) {
    if (slots_[slot].live) {
      heap_[w++] = slot;
    } else {
      Release(slot);
    }
  }
  heap_.resize(w);
  dead_in_heap_ = 0;
  for (size_t i = w / 2; i-- > 0;) SiftDown(i);
}

uint32_t EventQueue::PopNextSlot() {
  while (!heap_.empty()) {
    uint32_t slot = heap_[0];
    HeapPopRoot();
    if (!slots_[slot].live) {
      --dead_in_heap_;
      Release(slot);
      continue;
    }
    return slot;
  }
  return kNone;
}

bool EventQueue::PeekTime(SimTime* t) {
  while (!heap_.empty()) {
    uint32_t slot = heap_[0];
    if (!slots_[slot].live) {
      HeapPopRoot();
      --dead_in_heap_;
      Release(slot);
      continue;
    }
    *t = slots_[slot].time;
    return true;
  }
  return false;
}

size_t EventQueue::Run(size_t limit) {
  const bool was_running = std::exchange(running_, true);
  size_t fired = 0;
  while (fired < limit) {
    uint32_t slot = PopNextSlot();
    if (slot == kNone) break;
    now_ = slots_[slot].time;
    EventFn fn = std::move(slots_[slot].fn);
    slots_[slot].live = false;
    --live_count_;
    // Release before invoking: the closure may schedule, reusing this slot
    // under a fresh generation (and possibly reallocating slots_).
    Release(slot);
    fn();
    MaybeValidate();
    ++fired;
  }
  running_ = was_running;
  if (run_counter_ != nullptr) run_counter_->Inc(fired);
  return fired;
}

size_t EventQueue::RunUntil(SimTime t) {
  const bool was_running = std::exchange(running_, true);
  size_t fired = 0;
  SimTime next;
  while (PeekTime(&next) && next <= t) {
    uint32_t slot = PopNextSlot();
    if (slot == kNone) break;
    now_ = slots_[slot].time;
    EventFn fn = std::move(slots_[slot].fn);
    slots_[slot].live = false;
    --live_count_;
    Release(slot);
    fn();
    MaybeValidate();
    ++fired;
  }
  running_ = was_running;
  if (t > now_) now_ = t;
  if (run_counter_ != nullptr) run_counter_->Inc(fired);
  return fired;
}

size_t EventQueue::RunUntilBefore(SimTime t) {
  const bool was_running = std::exchange(running_, true);
  size_t fired = 0;
  SimTime next;
  while (PeekTime(&next) && next < t) {
    uint32_t slot = PopNextSlot();
    if (slot == kNone) break;
    now_ = slots_[slot].time;
    EventFn fn = std::move(slots_[slot].fn);
    slots_[slot].live = false;
    --live_count_;
    Release(slot);
    fn();
    MaybeValidate();
    ++fired;
  }
  running_ = was_running;
  // The clock is left at the last fired event; the engine advances every
  // shard to a common barrier time afterwards (AdvanceTo), so a window that
  // overshoots the run target never drags the clock past it.
  if (run_counter_ != nullptr) run_counter_->Inc(fired);
  return fired;
}

bool EventQueue::Step() {
  uint32_t slot = PopNextSlot();
  if (slot == kNone) return false;
  now_ = slots_[slot].time;
  EventFn fn = std::move(slots_[slot].fn);
  slots_[slot].live = false;
  --live_count_;
  Release(slot);
  const bool was_running = std::exchange(running_, true);
  fn();
  running_ = was_running;
  MaybeValidate();
  if (run_counter_ != nullptr) run_counter_->Inc();
  return true;
}

Status EventQueue::ValidateInvariants() const {
#if MIND_VALIDATORS_ENABLED
  // Heap order: no entry sorts before its parent under (time, seq).
  for (size_t i = 1; i < heap_.size(); ++i) {
    const size_t parent = (i - 1) / 2;
    MIND_VALIDATE(heap_[i] < slots_.size(),
                  "event-queue: heap[" << i << "] = " << heap_[i]
                                       << " is not a valid slot index ("
                                       << slots_.size() << " slots)");
    MIND_VALIDATE(!Before(heap_[i], heap_[parent]),
                  "event-queue: heap property violated at heap[" << i << "]: slot "
                      << heap_[i] << " (t=" << slots_[heap_[i]].time << " seq="
                      << slots_[heap_[i]].seq << ") orders before its parent slot "
                      << heap_[parent] << " (t=" << slots_[heap_[parent]].time
                      << " seq=" << slots_[heap_[parent]].seq << ")");
  }
  if (!heap_.empty()) {
    MIND_VALIDATE(heap_[0] < slots_.size(),
                  "event-queue: heap[0] = " << heap_[0]
                                            << " is not a valid slot index");
  }

  // Every slot is on exactly one of {heap, free list}; the free list is
  // acyclic, properly terminated, and holds only dead slots.
  std::vector<uint8_t> where(slots_.size(), 0);  // bit0 = heap, bit1 = free list
  for (uint32_t s : heap_) {
    MIND_VALIDATE((where[s] & 1) == 0,
                  "event-queue: slot " << s << " appears twice in the heap");
    where[s] |= 1;
  }
  size_t free_len = 0;
  for (uint32_t s = free_head_; s != kNone; s = slots_[s].next_free) {
    MIND_VALIDATE(s < slots_.size(), "event-queue: free list points at invalid slot "
                                         << s << " (" << slots_.size() << " slots)");
    MIND_VALIDATE((where[s] & 2) == 0, "event-queue: free list cycles at slot " << s);
    MIND_VALIDATE((where[s] & 1) == 0,
                  "event-queue: slot " << s << " is both in the heap and on the free list");
    MIND_VALIDATE(!slots_[s].live, "event-queue: live slot " << s << " on the free list");
    where[s] |= 2;
    MIND_VALIDATE(++free_len <= slots_.size(),
                  "event-queue: free list longer than the slot array");
  }
  for (size_t s = 0; s < slots_.size(); ++s) {
    MIND_VALIDATE(where[s] != 0, "event-queue: slot " << s
                                     << " leaked (neither in heap nor on free list)");
  }

  // Counters agree with the slot flags; live events are never in the past,
  // and their sequence numbers are unique and within the allocated range.
  size_t live = 0;
  size_t dead_in_heap = 0;
  std::vector<uint64_t> seqs;
  for (uint32_t s : heap_) {
    const Slot& slot = slots_[s];
    if (slot.live) {
      ++live;
      MIND_VALIDATE(slot.time >= now_, "event-queue: live slot " << s << " at t="
                                           << slot.time << " is before now=" << now_);
      MIND_VALIDATE(slot.seq <= next_seq_,
                    "event-queue: slot " << s << " has seq " << slot.seq
                                         << " beyond high-water mark " << next_seq_);
      seqs.push_back(slot.seq);
    } else {
      ++dead_in_heap;
    }
  }
  MIND_VALIDATE(live == live_count_, "event-queue: live_count_ is " << live_count_
                                         << " but " << live << " heap slots are live");
  MIND_VALIDATE(dead_in_heap == dead_in_heap_,
                "event-queue: dead_in_heap_ is " << dead_in_heap_ << " but " << dead_in_heap
                                                 << " heap slots are dead");
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 1; i < seqs.size(); ++i) {
    MIND_VALIDATE(seqs[i] != seqs[i - 1],
                  "event-queue: duplicate sequence number " << seqs[i]);
  }
#endif  // MIND_VALIDATORS_ENABLED
  return Status::OK();
}

void EventQueue::CollectKeyed(std::vector<std::array<uint64_t, 3>>* out) const {
  for (uint32_t s : heap_) {
    if (!slots_[s].live) continue;
    out->push_back({slots_[s].time, static_cast<uint64_t>(slots_[s].band),
                    slots_[s].ukey});
  }
}

}  // namespace mind
