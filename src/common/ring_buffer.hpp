// Fixed-capacity single-producer ring used for hardware descriptor rings
// (SDMA engines) and IKC channels. Capacity is fixed at construction, which
// mirrors how real descriptor rings behave: when full, the producer must
// back off (EAGAIN / ring-full), it never grows on its own. Software rings
// may be resized explicitly via grow() — modelling a kernel reallocating a
// shared-memory ring region — which preserves FIFO order.
//
// Slot storage is allocated on the first push, so a ring that is never
// used (an IKC channel under the direct transport, an idle waiter queue)
// costs only the object itself; capacity() reports the configured size
// either way.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace pd {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) { assert(capacity > 0); }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }
  std::size_t free_slots() const { return capacity_ - count_; }
  /// Slots with host storage behind them: 0 until the first push, then
  /// the capacity.
  std::size_t allocated_slots() const { return slots_.size(); }

  /// Returns false (and leaves the ring untouched) when full.
  [[nodiscard]] bool push(T item) {
    if (full()) return false;
    if (slots_.empty()) slots_.resize(capacity_);
    slots_[tail_] = std::move(item);
    tail_ = advance(tail_);
    ++count_;
    return true;
  }

  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T item = std::move(slots_[head_]);
    head_ = advance(head_);
    --count_;
    return item;
  }

  /// Peek without consuming; undefined when empty (asserted).
  const T& front() const {
    assert(!empty());
    return slots_[head_];
  }

  void clear() {
    head_ = tail_ = 0;
    count_ = 0;
  }

  /// Reallocate to `new_capacity` (>= size, asserted), keeping queued items
  /// in FIFO order. No-op when not actually growing.
  void grow(std::size_t new_capacity) {
    if (new_capacity <= capacity_) return;
    if (!slots_.empty()) {
      std::vector<T> bigger(new_capacity);
      for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = std::move(slots_[(head_ + i) % capacity_]);
      slots_ = std::move(bigger);
    }
    capacity_ = new_capacity;
    head_ = 0;
    tail_ = count_;
  }

 private:
  std::size_t advance(std::size_t i) const { return i + 1 == capacity_ ? 0 : i + 1; }

  std::vector<T> slots_;  // empty until the first push
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pd
