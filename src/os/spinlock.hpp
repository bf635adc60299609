// Cross-kernel shared spin-lock (paper §3.3).
//
// The HFI driver guards each SDMA engine with a spin-lock. Under
// PicoDriver, the *same lock word* is taken from Linux (offloaded slow
// path, IRQ completion) and from McKernel (fast path) — legal because the
// two kernels share cache-coherent memory and adopted the same lock
// implementation. The model enforces the paper's compatibility requirement
// through the ABI tag and provides FIFO acquisition with contention
// statistics, so cross-kernel serialization on a driver lock is a real,
// measurable effect rather than a constant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace pd::os {

class SharedSpinlock {
 public:
  /// `abi`: the lock implementation identifier; both kernels must agree
  /// (LinuxKernel::spinlock_abi() / McKernel::spinlock_abi()).
  SharedSpinlock(sim::Engine& engine, std::string abi, Dur uncontended_cost)
      : engine_(engine), res_(engine, 1), abi_(std::move(abi)),
        uncontended_cost_(uncontended_cost) {}

  const std::string& abi() const { return abi_; }

  /// FIFO (ticket-lock) acquisition. Contended acquisitions burn the wait
  /// as spinning (the McKernel side cannot sleep: Linux could not send a
  /// wake-up across the kernel boundary — §3.3).
  sim::Task<> acquire() {
    ++acquisitions_;
    const Time queued = engine_.now();
    if (res_.available() == 0) ++contended_;
    co_await res_.acquire();
    spin_time_ += engine_.now() - queued;
    co_await engine_.delay(uncontended_cost_);
  }

  void release() { res_.release(); }

  bool locked() const { return res_.available() == 0; }
  /// Waiter-queue slots with host storage (0 until the lock is contended).
  std::size_t waiter_slots() const { return res_.waiter_slots(); }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }
  double total_spin_us() const { return to_us(spin_time_); }

 private:
  sim::Engine& engine_;
  sim::Resource res_;
  std::string abi_;
  Dur uncontended_cost_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
  Dur spin_time_ = 0;
};

}  // namespace pd::os
