#include "src/hw/rcv_array.hpp"

#include <limits>

namespace pd::hw {

Result<std::uint32_t> RcvArray::program(int ctxt, mem::PhysAddr pa, std::uint64_t len) {
  if (len == 0 || len > std::numeric_limits<decltype(TidEntry::len)>::max())
    return Errno::einval;
  if (ctxt < 0 || ctxt > std::numeric_limits<decltype(TidEntry::owner_ctxt)>::max())
    return Errno::einval;
  const std::uint32_t n = capacity();
  if (in_use_ == n) return Errno::enospc;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t tid = (next_hint_ + i) % n;
    if (!entries_[tid].valid) {
      entries_[tid] = TidEntry{pa, static_cast<std::uint32_t>(len),
                               static_cast<std::int16_t>(ctxt), true};
      next_hint_ = (tid + 1) % n;
      ++in_use_;
      if (per_ctxt_.size() <= static_cast<std::size_t>(ctxt)) per_ctxt_.resize(ctxt + 1, 0);
      ++per_ctxt_[ctxt];
      return tid;
    }
  }
  return Errno::enospc;
}

Status RcvArray::unprogram(int ctxt, std::uint32_t tid) {
  if (tid >= capacity()) return Errno::einval;
  TidEntry& e = entries_[tid];
  if (!e.valid || e.owner_ctxt != ctxt) return Errno::einval;
  e = TidEntry{};
  --in_use_;
  --per_ctxt_[ctxt];
  return Status::success();
}

std::size_t RcvArray::unprogram_all(int ctxt) {
  // Skip the scan when the context holds nothing (the common case at
  // close time, after PSM freed everything).
  if (ctxt < 0 || static_cast<std::size_t>(ctxt) >= per_ctxt_.size() || per_ctxt_[ctxt] == 0)
    return 0;
  std::size_t freed = 0;
  for (auto& e : entries_) {
    if (e.valid && e.owner_ctxt == ctxt) {
      e = TidEntry{};
      --in_use_;
      ++freed;
    }
  }
  per_ctxt_[ctxt] = 0;
  return freed;
}

const TidEntry* RcvArray::entry(std::uint32_t tid) const {
  if (tid >= capacity() || !entries_[tid].valid) return nullptr;
  return &entries_[tid];
}

}  // namespace pd::hw
