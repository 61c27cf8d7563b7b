// A move-only callable with a 64-byte inline buffer, replacing
// std::function<void()> as the event-queue closure type.
//
// The simulator schedules millions of closures per run and nearly all of
// them are small lambdas (a `this`, a shared_ptr payload, a couple of
// integers — 16 to 56 bytes). libstdc++'s std::function spills anything
// over 16 bytes to the heap, so every scheduled event paid a malloc/free
// pair. EventFn keeps closures up to kInlineSize bytes inline; larger or
// throwing-move callables fall back to the heap transparently.
#ifndef MIND_SIM_EVENT_FN_H_
#define MIND_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/arena.h"

namespace mind {

class EventFn {
 public:
  /// Covers the hot-path closures (insert commit: 40 bytes, query reply:
  /// 32 bytes) with headroom.
  static constexpr size_t kInlineSize = 64;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::kOps;
    } else {
      // Oversized closures go through the event pool, not ::operator new,
      // so even the fallback path stays inside the bounded-memory layer.
      void* mem = pool::Allocate(sizeof(D));
      *reinterpret_cast<D**>(buf_) = ::new (mem) D(std::forward<F>(f));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(&other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }

 private:
  static constexpr size_t kAlign = alignof(std::max_align_t);

  struct Ops {
    void (*invoke)(void*);
    // Move-constructs dst's payload from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<D*>(p))(); }
    static void Relocate(void* dst, void* src) {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void Destroy(void* p) { static_cast<D*>(p)->~D(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static void Invoke(void* p) { (**static_cast<D**>(p))(); }
    static void Relocate(void* dst, void* src) {
      *static_cast<D**>(dst) = *static_cast<D**>(src);
    }
    static void Destroy(void* p) {
      D* d = *static_cast<D**>(p);
      d->~D();
      pool::Deallocate(d, sizeof(D));
    }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }
  void MoveFrom(EventFn* other) {
    ops_ = other->ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other->buf_);
      other->ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char buf_[kInlineSize];
};

}  // namespace mind

#endif  // MIND_SIM_EVENT_FN_H_
