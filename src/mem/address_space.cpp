#include "src/mem/address_space.hpp"

#include <algorithm>
#include <cassert>

namespace pd::mem {

namespace {

/// Key of the 4 KiB frame containing `pa` in the pin table.
std::uint32_t frame_number(PhysAddr pa) {
  const PhysAddr n = pa / kPage4K;
  assert(n < FlatMap32<std::uint32_t>::kEmptyKey && "frame number must fit the 32-bit key");
  return static_cast<std::uint32_t>(n);
}

/// Whether `pa` lies in one of the address-sorted, disjoint extents.
bool covers(const std::vector<PhysExtent>& sorted, PhysAddr pa) {
  auto it = std::upper_bound(sorted.begin(), sorted.end(), pa,
                             [](PhysAddr x, const PhysExtent& e) { return x < e.pa; });
  return it != sorted.begin() && pa < std::prev(it)->pa + std::prev(it)->len;
}

}  // namespace

AddressSpace::AddressSpace(PhysMap& phys, BackingPolicy policy, MemKind preferred_kind,
                           VirtAddr mmap_base, std::uint64_t rng_seed)
    : phys_(phys),
      policy_(policy),
      preferred_kind_(preferred_kind),
      mmap_cursor_(mmap_base),
      rng_(rng_seed) {}

AddressSpace::~AddressSpace() {
  // Return all anonymous backings to the physical allocator.
  for (auto& [start, vma] : vmas_)
    if (!vma.device) release_backing(vma);
}

Result<VirtAddr> AddressSpace::reserve_va(std::uint64_t len, std::uint64_t align) {
  const VirtAddr addr = page_ceil(mmap_cursor_, align);
  mmap_cursor_ = addr + page_ceil(len, kPage4K);
  return addr;
}

Result<VirtAddr> AddressSpace::mmap_anonymous(std::uint64_t len, std::uint32_t prot) {
  if (len == 0) return Errno::einval;
  len = page_ceil(len, kPage4K);

  if (policy_ == BackingPolicy::linux_4k) {
    // Page-by-page backing. To model a fragmented host, allocate small
    // random-order blocks so virtually adjacent pages land on physically
    // scattered frames (contiguity across page boundaries is rare). The
    // page table is the only record of the frames: munmap() walks it.
    auto va = reserve_va(len, kPage4K);
    std::vector<PhysAddr> frames;
    frames.reserve(len / kPage4K);
    for (std::uint64_t off = 0; off < len; off += kPage4K) {
      auto pa = phys_.alloc(kPage4K, preferred_kind_);
      if (!pa.ok()) {
        for (PhysAddr f : frames) phys_.free(f, kPage4K);
        return pa.error();
      }
      frames.push_back(*pa);
    }
    // Shuffle frame order before mapping: each allocation above may have
    // been contiguous with its neighbour; a long-running kernel's page
    // pool is not.
    for (std::size_t i = frames.size(); i > 1; --i)
      std::swap(frames[i - 1], frames[rng_.next_below(i)]);
    VirtAddr cur = *va;
    for (PhysAddr f : frames) {
      Status s = pt_.map(cur, f, kPage4K, prot);
      assert(s.ok());
      (void)s;
      cur += kPage4K;
    }
    Vma vma{*va, *va + len, prot, /*pinned=*/false, /*device=*/false};
    vmas_.emplace(*va, vma);
    return *va;
  }

  std::vector<Backing> backings;
  auto rollback = [&] {
    for (const auto& b : backings) phys_.free(b.pa, b.len);
  };

  // LWK policy: back with the largest contiguous blocks available, 2 MiB
  // leaves when alignment allows, and pin everything up front.
  const std::uint64_t align = len >= kPage2M ? kPage2M : kPage4K;
  auto va = reserve_va(len, align);
  VirtAddr cur = *va;
  std::uint64_t remaining = len;
  while (remaining > 0) {
    // Try the largest power-of-two chunk (<= remaining) first, shrinking on
    // allocation failure; chunks >= 2 MiB map with large-page leaves.
    std::uint64_t chunk = std::uint64_t(1) << BuddyAllocator::order_for(remaining);
    if (chunk > remaining) chunk >>= 1;
    chunk = std::max(chunk, kPage4K);
    Result<PhysAddr> pa = Errno::enomem;
    while (true) {
      pa = phys_.alloc(chunk, preferred_kind_);
      if (pa.ok() || chunk == kPage4K) break;
      chunk >>= 1;
    }
    if (!pa.ok()) {
      rollback();
      pt_.unmap_range(*va, cur - *va);
      return pa.error();
    }
    const bool large_ok = chunk >= kPage2M && page_aligned(cur, kPage2M) &&
                          page_aligned(*pa, kPage2M);
    const std::uint64_t leaf = large_ok ? kPage2M : kPage4K;
    Status s = pt_.map_range(cur, *pa, chunk, leaf, prot);
    assert(s.ok());
    (void)s;
    // The chunk stays pinned for as long as it is mapped; the pin is the
    // backing itself, not a per-frame count (see held_extents()).
    backings.push_back(Backing{*pa, chunk, leaf});
    cur += chunk;
    remaining -= chunk;
  }
  Vma vma{*va, *va + len, prot, /*pinned=*/true, /*device=*/false};
  vmas_.emplace(*va, vma);
  backings_.emplace(*va, std::move(backings));
  return *va;
}

Result<VirtAddr> AddressSpace::mmap_device(PhysAddr pa, std::uint64_t len, std::uint32_t prot) {
  if (len == 0 || !page_aligned(pa, kPage4K)) return Errno::einval;
  len = page_ceil(len, kPage4K);
  auto va = reserve_va(len, kPage4K);
  Status s = pt_.map_range(*va, pa, len, kPage4K, prot);
  if (!s.ok()) return s.error();
  Vma vma{*va, *va + len, prot, /*pinned=*/true, /*device=*/true};
  vmas_.emplace(*va, vma);
  return *va;
}

void AddressSpace::release_backing(const Vma& vma) {
  if (policy_ == BackingPolicy::linux_4k) {
    // Free the frames the page table maps while the mapping still exists,
    // in ascending VA order: the buddy allocator's free lists are LIFO, so
    // this order decides which frames later allocations get.
    pt_.for_each_leaf(vma.start, vma.end - vma.start, [&](const PageTable::Leaf& leaf) {
      phys_.free(leaf.pa, leaf.page);
      return true;
    });
    return;
  }
  auto it = backings_.find(vma.start);
  if (it == backings_.end()) return;
  for (const auto& b : it->second) phys_.free(b.pa, b.len);
  backings_.erase(it);
}

Status AddressSpace::munmap(VirtAddr addr, std::uint64_t len) {
  auto it = vmas_.find(addr);
  if (it == vmas_.end() || it->second.end - it->second.start != page_ceil(len, kPage4K))
    return Errno::einval;
  const Vma vma = it->second;
  if (!vma.device) release_backing(vma);
  pt_.unmap_range(vma.start, vma.end - vma.start);
  vmas_.erase(it);
  // Caches validate against the generation, then against the interval log:
  // only entries whose range overlaps a logged unmap are actually stale.
  ++map_generation_;
  unmap_log_.push_back(UnmapInterval{vma.start, vma.end, map_generation_});
  while (unmap_log_.size() > unmap_log_capacity_) {
    unmap_log_floor_ = unmap_log_.front().generation;
    unmap_log_.erase(unmap_log_.begin());
  }
  return Status::success();
}

void AddressSpace::set_unmap_log_capacity(std::size_t n) {
  unmap_log_capacity_ = n;
  while (unmap_log_.size() > unmap_log_capacity_) {
    unmap_log_floor_ = unmap_log_.front().generation;
    unmap_log_.erase(unmap_log_.begin());
  }
}

RangeVerdict AddressSpace::range_verdict_since(VirtAddr va, std::uint64_t len,
                                               std::uint64_t generation) const {
  if (generation >= map_generation_) return RangeVerdict::intact;
  if (generation < unmap_log_floor_) return RangeVerdict::unknown;
  // Unmaps are VMA-granular and page aligned; widen the query to page
  // bounds so a partially covered edge page is never missed.
  const VirtAddr lo = page_floor(va, kPage4K);
  const VirtAddr hi = page_ceil(va + len, kPage4K);
  for (const UnmapInterval& u : unmap_log_) {
    if (u.generation <= generation) continue;
    if (u.start < hi && lo < u.end) return RangeVerdict::overlaps_unmap;
  }
  return RangeVerdict::intact;
}

Result<PinnedPages> AddressSpace::get_user_pages(VirtAddr va, std::uint64_t len) {
  if (len == 0) return Errno::einval;
  const VirtAddr start = page_floor(va, kPage4K);
  const VirtAddr end = page_ceil(va + len, kPage4K);
  PinnedPages pages;
  pages.frames.reserve((end - start) / kPage4K);
  VirtAddr cur = start;
  pt_.for_each_leaf(start, end - start, [&](const PageTable::Leaf& leaf) {
    if (leaf.va > cur) return false;  // hole before this leaf
    const VirtAddr stop = std::min(end, leaf.va + leaf.page);
    for (; cur < stop; cur += kPage4K) {
      const PhysAddr frame = leaf.pa + (cur - leaf.va);
      ++gup_pins_[frame_number(frame)];
      pages.frames.push_back(frame);
    }
    return true;
  });
  if (cur < end) {
    put_user_pages(pages);  // unpin what we already took
    return Errno::efault;
  }
  return pages;
}

void AddressSpace::put_user_pages(const PinnedPages& pages) {
  for (PhysAddr frame : pages.frames) put_user_page(frame);
}

void AddressSpace::put_user_page(PhysAddr frame) {
  const std::uint32_t key = frame_number(frame);
  std::uint32_t* count = gup_pins_.find(key);
  assert(count != nullptr && "unbalanced put_user_page");
  if (--*count == 0) gup_pins_.erase(key);
}

Result<std::vector<PhysExtent>> AddressSpace::physical_extents(VirtAddr va, std::uint64_t len,
                                                               std::uint64_t max_extent) const {
  std::vector<PhysExtent> extents;
  Status s = physical_extents(va, len, max_extent, extents);
  if (!s.ok()) return s.error();
  return extents;
}

Status AddressSpace::physical_extents(VirtAddr va, std::uint64_t len, std::uint64_t max_extent,
                                      std::vector<PhysExtent>& extents) const {
  extents.clear();
  if (len == 0) return Errno::einval;
  VirtAddr cur = va;
  const VirtAddr end = va + len;
  pt_.for_each_leaf(va, len, [&](const PageTable::Leaf& leaf) {
    if (leaf.va > cur) return false;  // hole before this leaf
    const PhysAddr pa = leaf.pa + (cur - leaf.va);
    // Bytes until the end of this leaf page.
    const std::uint64_t run = std::min(leaf.va + leaf.page, end) - cur;
    // Merge with the previous extent when physically adjacent.
    if (!extents.empty() && extents.back().pa + extents.back().len == pa &&
        (max_extent == 0 || extents.back().len < max_extent)) {
      const std::uint64_t room =
          max_extent == 0 ? run : std::min(run, max_extent - extents.back().len);
      extents.back().len += room;
      if (room < run) extents.push_back(PhysExtent{pa + room, run - room});
    } else {
      extents.push_back(PhysExtent{pa, run});
    }
    // Split oversized extents down to max_extent.
    if (max_extent != 0 && extents.back().len > max_extent) {
      PhysExtent big = extents.back();
      extents.pop_back();
      std::uint64_t off = 0;
      while (off < big.len) {
        const std::uint64_t piece = std::min(max_extent, big.len - off);
        extents.push_back(PhysExtent{big.pa + off, piece});
        off += piece;
      }
    }
    cur += run;
    return true;
  });
  return cur < end ? Status{Errno::efault} : Status::success();
}

const Vma* AddressSpace::find_vma(VirtAddr va) const {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) return nullptr;
  --it;
  return va < it->second.end ? &it->second : nullptr;
}

std::vector<PhysExtent> AddressSpace::held_extents() const {
  std::vector<PhysExtent> held;
  if (policy_ != BackingPolicy::lwk_contig) return held;
  for (const auto& [start, list] : backings_)
    for (const auto& b : list) held.push_back(PhysExtent{b.pa, b.len});
  std::sort(held.begin(), held.end(),
            [](const PhysExtent& a, const PhysExtent& b) { return a.pa < b.pa; });
  return held;
}

std::uint64_t AddressSpace::pinned_frame_count() const {
  // Union of the mapping-held frames and the get_user_pages-pinned ones.
  const std::vector<PhysExtent> held = held_extents();
  std::uint64_t n = 0;
  for (const PhysExtent& e : held) n += e.len / kPage4K;
  gup_pins_.for_each([&](std::uint32_t key, std::uint32_t) {
    if (!covers(held, PhysAddr{key} * kPage4K)) ++n;
  });
  return n;
}

bool AddressSpace::is_pinned(PhysAddr frame) const {
  return gup_pins_.find(frame_number(frame)) != nullptr || covers(held_extents(), frame);
}

double AddressSpace::large_page_fraction() const {
  std::uint64_t large = 0, total = 0;
  for (const auto& [start, vma] : vmas_)
    if (!vma.device) total += vma.end - vma.start;
  for (const auto& [start, list] : backings_)
    for (const auto& b : list)
      if (b.page == kPage2M) large += b.len;
  return total == 0 ? 0.0 : static_cast<double>(large) / static_cast<double>(total);
}

}  // namespace pd::mem
