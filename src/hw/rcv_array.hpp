// RcvArray: the HFI's expected-receive table (paper §2.2.2).
//
// Each entry (TID) describes a physically contiguous receive buffer run.
// User space registers buffers via ioctl(); the driver translates them to
// entries and programs the hardware; incoming expected packets consult the
// TID and place data directly into application memory (no eager copy).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::hw {

/// One RcvArray entry; 16 bytes, so a 32 K-entry array costs 512 KiB.
struct TidEntry {
  mem::PhysAddr pa = 0;
  std::uint32_t len = 0;          // a TID run is at most a few MiB
  std::int16_t owner_ctxt = -1;   // receive context that programmed the entry
  bool valid = false;
};
static_assert(sizeof(TidEntry) == 16, "TidEntry packs into 16 bytes");

class RcvArray {
 public:
  explicit RcvArray(std::uint32_t entries) : entries_(entries) {}

  /// Program a free entry; returns the TID index. EINVAL for an empty run,
  /// a run longer than TidEntry::len holds, or a context outside [0, 32767].
  Result<std::uint32_t> program(int ctxt, mem::PhysAddr pa, std::uint64_t len);

  /// Unprogram (free) an entry. EINVAL when not owned/valid.
  Status unprogram(int ctxt, std::uint32_t tid);

  /// Release every entry owned by a context (driver does this on close()).
  /// A context that never programmed an entry frees nothing.
  std::size_t unprogram_all(int ctxt);

  const TidEntry* entry(std::uint32_t tid) const;
  std::uint32_t capacity() const { return static_cast<std::uint32_t>(entries_.size()); }
  std::uint32_t in_use() const { return in_use_; }

 private:
  std::vector<TidEntry> entries_;
  std::vector<std::uint32_t> per_ctxt_;  // live entries, indexed by context
  std::uint32_t in_use_ = 0;
  std::uint32_t next_hint_ = 0;
};

}  // namespace pd::hw
