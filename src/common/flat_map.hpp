// Open-addressing hash map keyed by a 32-bit id, for hot bookkeeping that
// must not allocate per entry (DESIGN.md §8.10).
//
// Slots hold the key inline next to the value (an 8-byte slot for a 32-bit
// value). Linear probing, backward-shift deletion (no tombstones, so probe
// chains stay short under churn), doubling at 0.75 load, and Fibonacci
// hashing so runs of adjacent ids spread over the table. Storage grows to
// the peak entry count and is kept; inserts allocate only when they grow
// it. Pointers into the map are invalidated by any insert or erase.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pd {

template <typename V>
class FlatMap32 {
 public:
  /// Reserved: the marker of an empty slot.
  static constexpr std::uint32_t kEmptyKey = UINT32_MAX;

  /// The value stored under `key`, or nullptr.
  const V* find(std::uint32_t key) const {
    if (size_ == 0) return nullptr;
    const Slot& s = slots_[probe(key)];
    return s.key == key ? &s.value : nullptr;
  }
  V* find(std::uint32_t key) { return const_cast<V*>(std::as_const(*this).find(key)); }

  /// The value stored under `key`, value-initialized when absent.
  V& operator[](std::uint32_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    Slot& s = slots_[probe(key)];
    if (s.key != key) {
      s.key = key;
      ++size_;
    }
    return s.value;
  }

  /// Remove `key`; false when it was absent.
  bool erase(std::uint32_t key) {
    if (size_ == 0) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    --size_;
    // Pull later members of the probe chain into the hole unless their
    // home lies cyclically in (hole, member].
    for (std::size_t j = next(hole); slots_[j].key != kEmptyKey; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      if (hole <= j ? (hole < h && h <= j) : (hole < h || h <= j)) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Slot{};
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Call `fn(key, value)` for every entry, in no particular order.
  template <typename F>
  void for_each(F&& fn) const {
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) fn(s.key, s.value);
  }

 private:
  struct Slot {
    std::uint32_t key = kEmptyKey;
    V value{};
  };

  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }
  std::size_t home(std::uint32_t key) const { return (key * 0x9E3779B9u) >> shift_; }
  /// Slot holding `key`, or the empty slot that ends its probe chain.
  std::size_t probe(std::uint32_t key) const {
    std::size_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) i = next(i);
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : slots_.size() * 2);
    old.swap(slots_);
    shift_ = 32;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (const Slot& s : old)
      if (s.key != kEmptyKey) slots_[probe(s.key)] = s;
  }

  std::vector<Slot> slots_;  // power-of-two capacity
  std::size_t size_ = 0;
  unsigned shift_ = 32;
};

}  // namespace pd
