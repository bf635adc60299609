// Synchronization primitives for simulated processes.
//
//   Latch    — one-shot broadcast event (completion notification).
//   Channel  — unbounded FIFO with awaitable receive (IKC message queues).
//   Resource — counted FIFO semaphore (models exclusive/limited hardware
//              or CPU service capacity; the Linux-CPU offload contention in
//              the paper is a Resource with `linux_cpus` units).
//
// All primitives schedule resumptions through the engine queue instead of
// resuming inline, so a trigger/release never reenters the caller and
// event ordering stays strictly time/sequence based.
//
// Queues are RingBuffers that double when full and allocate nothing until
// the first push: a primitive that never blocks anyone (an uncontended
// lock, an unused IKC channel) costs no host heap.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/ring_buffer.hpp"
#include "src/sim/engine.hpp"

namespace pd::sim {

namespace detail {

/// Initial slot count of a primitive's queue (allocated on first use).
inline constexpr std::size_t kQueueSlots = 4;

/// Append to an unbounded FIFO, doubling its ring when full.
template <typename T>
void enqueue(RingBuffer<T>& q, T item) {
  if (q.full()) q.grow(2 * q.capacity());
  const bool pushed = q.push(std::move(item));
  assert(pushed);
  (void)pushed;
}

}  // namespace detail

/// One-shot broadcast: waiters before trigger() suspend, waiters after
/// proceed immediately. Reusable objects should use Channel instead.
class Latch {
 public:
  explicit Latch(Engine& engine) : engine_(&engine) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) engine_->schedule_resume(0, h);
    waiters_.clear();
  }

  struct Awaiter {
    Latch& latch;
    bool await_ready() const noexcept { return latch.triggered_; }
    void await_suspend(std::coroutine_handle<> h) { latch.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

 private:
  Engine* engine_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel. send() never blocks; recv() suspends until an
/// item arrives. Items are handed to waiters in FIFO order.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T item) {
    if (!waiters_.empty()) {
      const Waiter w = *waiters_.pop();
      *w.slot = std::move(item);
      engine_->schedule_resume(0, w.h);
      return;
    }
    detail::enqueue(items_, std::move(item));
  }

  std::size_t pending() const { return items_.size(); }
  std::size_t waiting_receivers() const { return waiters_.size(); }

  struct Awaiter {
    Channel& ch;
    std::optional<T> slot;

    bool await_ready() {
      if (ch.items_.empty()) return false;
      slot = ch.items_.pop();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      detail::enqueue(ch.waiters_, Waiter{h, &slot});
    }
    T await_resume() {
      assert(slot.has_value());
      return std::move(*slot);
    }
  };
  Awaiter recv() { return Awaiter{*this, std::nullopt}; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::optional<T>* slot;
  };

  Engine* engine_;
  RingBuffer<T> items_{detail::kQueueSlots};
  RingBuffer<Waiter> waiters_{detail::kQueueSlots};
};

/// Counted FIFO semaphore. acquire(n) suspends until n units are free and
/// grants strictly in arrival order (no barging), which makes queueing
/// delay under contention reproducible. Capacity is elastic: grow() adds
/// units immediately, shrink() retires them — taking free units first and
/// absorbing the remainder as debt out of future release() calls, so a
/// unit currently held is never yanked from under its holder.
class Resource {
 public:
  Resource(Engine& engine, std::size_t capacity) : engine_(&engine), free_(capacity), capacity_(capacity) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return free_; }
  std::size_t queue_length() const { return waiters_.size(); }
  /// Waiter-queue slots with host storage (0 until someone first waits).
  std::size_t waiter_slots() const { return waiters_.allocated_slots(); }
  /// Units shrink() could not take from the free pool: retired lazily as
  /// their current holders release them.
  std::size_t shrink_debt() const { return debt_; }

  /// Add `n` units at runtime (a CPU handed to this pool). Queued waiters
  /// are granted immediately, in arrival order.
  void grow(std::size_t n) {
    capacity_ += n;
    free_ += n;
    grant();
  }

  /// Retire `n` units at runtime (a CPU leaving this pool). Units are taken
  /// from the free pool when possible; units currently held become debt and
  /// are retired by the next release() calls instead of re-entering the
  /// pool. Returns false (untouched) when `n` exceeds the capacity.
  bool shrink(std::size_t n) {
    if (n > capacity_) return false;
    capacity_ -= n;
    const std::size_t from_free = std::min(free_, n);
    free_ -= from_free;
    debt_ += n - from_free;
    return true;
  }

  struct Awaiter {
    Resource& res;
    std::size_t n;
    bool await_ready() {
      // FIFO: even if units are free, queued waiters go first.
      if (res.waiters_.empty() && res.free_ >= n) {
        res.free_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      detail::enqueue(res.waiters_, Waiter{h, n});
    }
    void await_resume() const noexcept {}
  };
  Awaiter acquire(std::size_t n = 1) {
    assert(n <= capacity_);
    return Awaiter{*this, n};
  }

  void release(std::size_t n = 1) {
    // Shrink debt eats released units before they re-enter the pool: the
    // holder of a retired unit finishes its work, then the unit vanishes.
    const std::size_t absorbed = std::min(debt_, n);
    debt_ -= absorbed;
    n -= absorbed;
    if (n == 0) return;
    free_ += n;
    assert(free_ <= capacity_);
    grant();
  }

  /// RAII unit holder for the common acquire-1/release-1 pattern.
  class Hold {
   public:
    explicit Hold(Resource& res) : res_(&res) {}
    Hold(Hold&& o) noexcept : res_(std::exchange(o.res_, nullptr)) {}
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
    Hold& operator=(Hold&&) = delete;
    ~Hold() {
      if (res_ != nullptr) res_->release(1);
    }

   private:
    Resource* res_;
  };

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::size_t n;
  };

  void grant() {
    while (!waiters_.empty() && waiters_.front().n <= free_) {
      const Waiter w = *waiters_.pop();
      free_ -= w.n;
      engine_->schedule_resume(0, w.h);
    }
  }

  Engine* engine_;
  std::size_t free_;
  std::size_t capacity_;
  std::size_t debt_ = 0;  // held units shrink() is still owed
  RingBuffer<Waiter> waiters_{detail::kQueueSlots};
};

}  // namespace pd::sim
