#include "src/hw/rcv_array.hpp"

#include <bit>
#include <limits>

namespace pd::hw {

RcvArray::RcvArray(std::uint32_t entries)
    : capacity_(entries),
      used_((std::size_t{entries} + 63) / 64, 0),
      pages_((std::size_t{entries} + kPageEntries - 1) / kPageEntries) {
  // Mark the tail of the last word busy so the search never returns a TID
  // past the capacity.
  if (entries % 64 != 0) used_.back() = ~std::uint64_t{0} << (entries % 64);
}

std::uint32_t RcvArray::next_free(std::uint32_t from) const {
  const std::size_t words = used_.size();
  std::size_t w = from / 64;
  std::uint64_t free = ~used_[w] & (~std::uint64_t{0} << (from % 64));
  // words + 1 visits: the start word above `from`, every other word, then
  // the start word again below `from`.
  for (std::size_t k = 0; free == 0 && k < words; ++k) {
    w = w + 1 == words ? 0 : w + 1;
    free = ~used_[w];
  }
  return static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(std::countr_zero(free)));
}

Result<std::uint32_t> RcvArray::program(int ctxt, mem::PhysAddr pa, std::uint64_t len) {
  if (len == 0 || len > std::numeric_limits<decltype(TidEntry::len)>::max())
    return Errno::einval;
  if (ctxt < 0 || ctxt > std::numeric_limits<decltype(TidEntry::owner_ctxt)>::max())
    return Errno::einval;
  if (in_use_ == capacity_) return Errno::enospc;
  const std::uint32_t tid = next_free(next_hint_);
  used_[tid / 64] |= std::uint64_t{1} << (tid % 64);
  std::unique_ptr<Page>& page = pages_[tid / kPageEntries];
  if (!page) page = std::make_unique<Page>();
  slot(tid) =
      TidEntry{pa, static_cast<std::uint32_t>(len), static_cast<std::int16_t>(ctxt), true};
  next_hint_ = tid + 1 == capacity_ ? 0 : tid + 1;
  ++in_use_;
  if (per_ctxt_.size() <= static_cast<std::size_t>(ctxt)) per_ctxt_.resize(ctxt + 1, 0);
  ++per_ctxt_[ctxt];
  return tid;
}

void RcvArray::release(std::uint32_t tid) {
  slot(tid) = TidEntry{};
  used_[tid / 64] &= ~(std::uint64_t{1} << (tid % 64));
  --in_use_;
  // Free the page when its bitmap words read empty. (A last page whose
  // final word carries the permanent tail bits is kept once allocated.)
  constexpr std::size_t kWordsPerPage = kPageEntries / 64;
  const std::size_t p = tid / kPageEntries;
  const std::size_t first = p * kWordsPerPage;
  for (std::size_t w = first; w < first + kWordsPerPage && w < used_.size(); ++w)
    if (used_[w] != 0) return;
  pages_[p].reset();
}

Status RcvArray::unprogram(int ctxt, std::uint32_t tid) {
  const TidEntry* e = entry(tid);
  if (e == nullptr || e->owner_ctxt != ctxt) return Errno::einval;
  release(tid);
  --per_ctxt_[ctxt];
  return Status::success();
}

std::size_t RcvArray::unprogram_all(int ctxt) {
  // Skip the scan when the context holds nothing (the common case at
  // close time, after PSM freed everything).
  if (ctxt < 0 || static_cast<std::size_t>(ctxt) >= per_ctxt_.size() || per_ctxt_[ctxt] == 0)
    return 0;
  std::size_t freed = 0;
  for (std::uint32_t tid = 0; tid < capacity_; ++tid) {
    if (!used(tid) || slot(tid).owner_ctxt != ctxt) continue;
    release(tid);
    ++freed;
  }
  per_ctxt_[ctxt] = 0;
  return freed;
}

const TidEntry* RcvArray::entry(std::uint32_t tid) const {
  if (tid >= capacity_ || !used(tid)) return nullptr;
  return &slot(tid);
}

}  // namespace pd::hw
