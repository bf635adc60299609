// Process/kernel address space: VMA bookkeeping + page-table backing with a
// per-kernel placement policy.
//
// The policy difference is the heart of paper §3.4:
//
//   * `BackingPolicy::linux_4k` — anonymous memory is backed page by page
//     with 4 KiB frames allocated independently (deliberately shuffled
//     placement so adjacent virtual pages are rarely physically adjacent,
//     as on a long-running Linux node). Pages are not pinned; drivers must
//     use get_user_pages() to pin them.
//
//   * `BackingPolicy::lwk_contig` — McKernel's policy: anonymous mappings
//     are backed by the largest available physically contiguous blocks,
//     using 2 MiB page-table leaves when alignment permits, and are pinned
//     at creation (unmapped only by explicit user request).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/mem/page_table.hpp"
#include "src/mem/phys.hpp"
#include "src/mem/types.hpp"

namespace pd::mem {

enum class BackingPolicy { linux_4k, lwk_contig };

/// One virtual memory area.
struct Vma {
  VirtAddr start = 0;
  VirtAddr end = 0;  // exclusive
  std::uint32_t prot = 0;
  bool pinned = false;
  bool device = false;  // device mapping (no physical frames owned)
};

/// A physically contiguous run backing part of a virtual range.
struct PhysExtent {
  PhysAddr pa = 0;
  std::uint64_t len = 0;
};

/// Result of get_user_pages(): pinned 4 KiB frames, one per page.
struct PinnedPages {
  std::vector<PhysAddr> frames;
};

/// One logged munmap, kept so translation caches can invalidate by range
/// overlap instead of dropping everything on any unmap.
struct UnmapInterval {
  VirtAddr start = 0;
  VirtAddr end = 0;              // exclusive, page aligned
  std::uint64_t generation = 0;  // map_generation() value after this munmap
};

/// What the unmap log can prove about a cached range since a generation.
enum class RangeVerdict {
  intact,          // no logged unmap since `generation` overlaps the range
  overlaps_unmap,  // an unmap overlapped it — cached translations are stale
  unknown,         // the log overflowed past `generation`; must assume stale
};

class AddressSpace {
 public:
  /// `mmap_base`: where anonymous mappings are placed (grows upward).
  AddressSpace(PhysMap& phys, BackingPolicy policy, MemKind preferred_kind,
               VirtAddr mmap_base, std::uint64_t rng_seed = 1);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  BackingPolicy policy() const { return policy_; }

  /// Anonymous mmap; returns the chosen virtual address.
  Result<VirtAddr> mmap_anonymous(std::uint64_t len, std::uint32_t prot);

  /// Map a device range (no frames allocated; pa supplied by the device).
  Result<VirtAddr> mmap_device(PhysAddr pa, std::uint64_t len, std::uint32_t prot);

  /// Unmap a previously mapped region. EINVAL unless [addr, addr+len)
  /// exactly matches a VMA. Pinned LWK memory is released here too — this
  /// is the "user requested operation" that is allowed to unpin.
  Status munmap(VirtAddr addr, std::uint64_t len);

  std::optional<Translation> translate(VirtAddr va) const { return pt_.translate(va); }
  const PageTable& page_table() const { return pt_; }

  /// Linux-style get_user_pages(): pin and return the 4 KiB frames backing
  /// [va, va+len). Fails with EFAULT if any page is unmapped.
  Result<PinnedPages> get_user_pages(VirtAddr va, std::uint64_t len);
  void put_user_pages(const PinnedPages& pages);
  /// Drop one get_user_pages() pin on the 4 KiB frame at `frame`.
  void put_user_page(PhysAddr frame);

  /// LWK-style page-table walk: physically contiguous runs covering
  /// [va, va+len), each at most `max_extent` bytes (0 = unlimited).
  /// Requires the range to be mapped; EFAULT otherwise.
  Result<std::vector<PhysExtent>> physical_extents(VirtAddr va, std::uint64_t len,
                                                   std::uint64_t max_extent) const;

  /// Output-buffer variant of the walk: fills `out` (cleared first, capacity
  /// reused) instead of allocating a fresh vector — the allocation-free form
  /// the fast path and ExtentCache build on. On error `out` is unspecified.
  Status physical_extents(VirtAddr va, std::uint64_t len, std::uint64_t max_extent,
                          std::vector<PhysExtent>& out) const;

  /// Monotone counter bumped by every munmap(); cached translations (see
  /// ExtentCache) are valid only while the generation they were filled at
  /// still matches — or while the unmap log can prove their range untouched.
  std::uint64_t map_generation() const { return map_generation_; }

  /// Range-precise staleness check (the PSM2-TID-cache refinement): can a
  /// translation of [va, va+len) cached at `generation` still be trusted?
  /// Consults the bounded unmap-interval log; once the log has dropped
  /// intervals newer than `generation` the answer degrades to `unknown`
  /// (the whole-address-space generation fallback).
  RangeVerdict range_verdict_since(VirtAddr va, std::uint64_t len,
                                   std::uint64_t generation) const;

  /// Unmap intervals retained before falling back to the global generation.
  /// 0 degrades to PR-1 behaviour: every munmap invalidates everything.
  static constexpr std::size_t kDefaultUnmapLogCapacity = 32;
  void set_unmap_log_capacity(std::size_t n);
  std::size_t unmap_log_capacity() const { return unmap_log_capacity_; }
  std::size_t unmap_log_size() const { return unmap_log_.size(); }
  /// Generation at (and below) which log information has been dropped.
  std::uint64_t unmap_log_floor() const { return unmap_log_floor_; }

  const Vma* find_vma(VirtAddr va) const;
  std::size_t vma_count() const { return vmas_.size(); }
  std::uint64_t pinned_frame_count() const;
  bool is_pinned(PhysAddr frame) const;

  /// Fraction of currently mapped anonymous bytes backed by 2 MiB leaves.
  double large_page_fraction() const;

 private:
  /// One physical block of an LWK mapping. Linux mappings keep no such
  /// record: their 4 KiB frames are exactly the page table's leaves.
  struct Backing {
    PhysAddr pa;
    std::uint64_t len;      // allocation unit handed back to PhysMap
    std::uint64_t page;     // leaf size used in the page table
  };

  Result<VirtAddr> reserve_va(std::uint64_t len, std::uint64_t align);
  void release_backing(const Vma& vma);
  /// Physical runs pinned by being mapped (every LWK anonymous backing),
  /// sorted by address.
  std::vector<PhysExtent> held_extents() const;

  PhysMap& phys_;
  BackingPolicy policy_;
  MemKind preferred_kind_;
  PageTable pt_;
  VirtAddr mmap_cursor_;
  Rng rng_;
  std::uint64_t map_generation_ = 0;

  // Bounded log of recent unmaps, oldest first; overflow raises the floor.
  std::vector<UnmapInterval> unmap_log_;
  std::size_t unmap_log_capacity_ = kDefaultUnmapLogCapacity;
  std::uint64_t unmap_log_floor_ = 0;

  std::map<VirtAddr, Vma> vmas_;                         // keyed by start
  std::map<VirtAddr, std::vector<Backing>> backings_;    // lwk_contig only; keyed by VMA start
  // get_user_pages() pins per 4 KiB frame number; LWK backings are pinned
  // by being mapped and are not counted here (see held_extents()).
  FlatMap32<std::uint32_t> gup_pins_;
};

}  // namespace pd::mem
