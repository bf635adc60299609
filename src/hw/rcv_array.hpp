// RcvArray: the HFI's expected-receive table (paper §2.2.2).
//
// Each entry (TID) describes a physically contiguous receive buffer run.
// User space registers buffers via ioctl(); the driver translates them to
// entries and programs the hardware; incoming expected packets consult the
// TID and place data directly into application memory (no eager copy).
//
// Host storage follows the live entries, not the capacity: an occupancy
// bitmap (one bit per TID, 4 KiB for 32 K entries) drives the next-fit
// search, and entries live in 4 KiB pages of 256 that are allocated when
// a TID in them is programmed and freed when their last TID is
// unprogrammed. Next-fit keeps the live TIDs in a window behind the
// cursor, so a handful of pages are resident, and a TID still indexes its
// entry directly (DESIGN.md §8.10).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::hw {

/// One programmed RcvArray entry; 16 bytes.
struct TidEntry {
  mem::PhysAddr pa = 0;
  std::uint32_t len = 0;          // a TID run is at most a few MiB
  std::int16_t owner_ctxt = -1;   // receive context that programmed the entry
  bool valid = false;
};
static_assert(sizeof(TidEntry) == 16, "TidEntry packs into 16 bytes");

class RcvArray {
 public:
  explicit RcvArray(std::uint32_t entries);

  /// Program a free entry; returns the TID index. TIDs are handed out
  /// next-fit: the first free index at or after the one past the last
  /// programmed TID, wrapping around. EINVAL for an empty run, a run longer
  /// than TidEntry::len holds, or a context outside [0, 32767].
  Result<std::uint32_t> program(int ctxt, mem::PhysAddr pa, std::uint64_t len);

  /// Unprogram (free) an entry. EINVAL when not owned/valid.
  Status unprogram(int ctxt, std::uint32_t tid);

  /// Release every entry owned by a context (driver does this on close()).
  /// A context that never programmed an entry frees nothing.
  std::size_t unprogram_all(int ctxt);

  /// The programmed entry at `tid`, or nullptr. The pointer is valid until
  /// the next program/unprogram call.
  const TidEntry* entry(std::uint32_t tid) const;
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t in_use() const { return in_use_; }

 private:
  static constexpr std::uint32_t kPageEntries = 256;  // 4 KiB of entries
  using Page = std::array<TidEntry, kPageEntries>;

  bool used(std::uint32_t tid) const { return (used_[tid / 64] >> (tid % 64)) & 1u; }
  /// First clear bit at or after `from`, cyclically; one must exist.
  std::uint32_t next_free(std::uint32_t from) const;
  TidEntry& slot(std::uint32_t tid) const {
    return (*pages_[tid / kPageEntries])[tid % kPageEntries];
  }
  /// Clear a programmed entry; frees its page when that was the last one.
  void release(std::uint32_t tid);

  std::uint32_t capacity_;
  std::vector<std::uint64_t> used_;         // occupancy bitmap; bits past capacity_ set
  std::vector<std::unique_ptr<Page>> pages_;  // null while a page holds no entry
  std::vector<std::uint32_t> per_ctxt_;     // live entries, indexed by context
  std::uint32_t in_use_ = 0;
  std::uint32_t next_hint_ = 0;
};

}  // namespace pd::hw
