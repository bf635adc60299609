// Four-level radix page table (x86_64-shaped: 48-bit VA, 9 bits per level).
// Leaves sit at level 0 (4 KiB), level 1 (2 MiB) or level 2 (1 GiB — what
// makes mapping a 64 TiB physical direct map practical); level 3 is the
// root (PML4).
//
// Each entry is one tagged 64-bit word, so a table is exactly one 4 KiB page:
//
//   bit 0      present
//   bit 1      leaf (terminal mapping at this level)
//   bits 2..4  prot (Prot bits; leaves only)
//   bits 12..  leaf: page-aligned physical address of the page
//              table: pointer to the child table (bits 0..2 are free
//              because tables are 8-byte aligned)
//
// A table exists only while it holds at least one present entry: unmapping
// the last entry of a table frees it, and frees each ancestor it empties in
// turn. The root is never freed.
//
// Both kernels' address spaces are backed by this structure. The PicoDriver
// fast path (paper §3.4) walks it directly to discover physically
// contiguous runs — including large pages — instead of collecting `struct
// page` references the way the Linux driver's get_user_pages() path does.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::mem {

/// Result of translating one virtual address.
struct Translation {
  PhysAddr pa = 0;           // physical address of the byte at `va`
  std::uint64_t page = 0;    // backing page size (4K / 2M / 1G)
  std::uint32_t prot = 0;    // Prot bits
};

class PageTable {
 public:
  /// One leaf mapping, as visited by for_each_leaf().
  struct Leaf {
    VirtAddr va = 0;          // first byte the leaf maps (aligned to `page`)
    PhysAddr pa = 0;          // physical address of that byte
    std::uint64_t page = 0;   // leaf size (4K / 2M / 1G)
    std::uint32_t prot = 0;
  };

  PageTable();
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  PageTable(PageTable&&) noexcept = default;
  PageTable& operator=(PageTable&& other) noexcept;

  /// Map one page of `page_size` (kPage4K / kPage2M / kPage1G). Both
  /// addresses must be aligned to `page_size` and `prot` must hold only
  /// Prot bits. EEXIST if any part of the page is already mapped.
  Status map(VirtAddr va, PhysAddr pa, std::uint64_t page_size, std::uint32_t prot);

  /// Map a run of pages covering [va, va+len).
  Status map_range(VirtAddr va, PhysAddr pa, std::uint64_t len, std::uint64_t page_size,
                   std::uint32_t prot);

  /// Remove the page mapping containing `va` (any size). ENOENT if absent.
  Status unmap(VirtAddr va);

  /// Remove all mappings intersecting [va, va+len).
  void unmap_range(VirtAddr va, std::uint64_t len);

  /// Translate a virtual address.
  std::optional<Translation> translate(VirtAddr va) const;

  /// Visit every leaf that intersects [va, va+len) in address order; an
  /// absent entry is skipped whole at whatever level it sits. `fn(const
  /// Leaf&)` returns false to stop the walk. Ranges are clipped to the
  /// 48-bit VA space.
  template <typename Fn>
  void for_each_leaf(VirtAddr va, std::uint64_t len, Fn&& fn) const;

  std::uint64_t mapped_pages() const { return mapped_pages_; }

  /// Tables currently allocated, the root included (walks the tree).
  std::uint64_t table_count() const;

 private:
  struct Node;
  class Entry {
   public:
    static constexpr std::uint64_t kPresent = 1u << 0;
    static constexpr std::uint64_t kLeaf = 1u << 1;
    static constexpr int kProtShift = 2;
    static constexpr std::uint32_t kProtMask = kProtRead | kProtWrite | kProtExec;
    static constexpr std::uint64_t kAddrMask = ~(kPage4K - 1);
    static constexpr std::uint64_t kTagMask = 0x7;

    static Entry leaf_of(PhysAddr pa, std::uint32_t prot) {
      return Entry{pa | (std::uint64_t{prot} << kProtShift) | kLeaf | kPresent};
    }
    static Entry table_of(Node* child) {
      return Entry{reinterpret_cast<std::uintptr_t>(child) | kPresent};
    }

    bool present() const { return (word_ & kPresent) != 0; }
    bool leaf() const { return (word_ & kLeaf) != 0; }
    PhysAddr pa() const { return word_ & kAddrMask; }
    std::uint32_t prot() const {
      return static_cast<std::uint32_t>(word_ >> kProtShift) & kProtMask;
    }
    Node* child() const { return reinterpret_cast<Node*>(word_ & ~kTagMask); }

    Entry() = default;

   private:
    explicit Entry(std::uint64_t word) : word_(word) {}
    std::uint64_t word_ = 0;
  };
  static constexpr std::size_t kEntries = 512;
  struct Node {
    std::array<Entry, kEntries> entries;
  };
  static_assert(sizeof(Entry) == 8, "a page-table entry is one 64-bit word");
  static_assert(sizeof(Node) == 4096, "a table is exactly one 4 KiB page");
  static_assert(alignof(Node) > Entry::kTagMask, "table pointers leave the tag bits free");

  static constexpr VirtAddr kVaLimit = VirtAddr{1} << 48;

  static int level_shift(int level) { return 12 + 9 * level; }  // level 0 = PTE
  static std::size_t index_at(VirtAddr va, int level) {
    return (va >> level_shift(level)) & 0x1FF;
  }
  static bool empty(const Node& node) {
    return std::none_of(node.entries.begin(), node.entries.end(),
                        [](const Entry& e) { return e.present(); });
  }
  static void free_children(Node& node, int level);
  static std::uint64_t count_tables(const Node& node, int level);

  /// The one range walker: calls `fn(entry, va, level)` for each present
  /// leaf entry of `node` (a level-`level` table mapping from `base`) that
  /// intersects [lo, hi), in address order; false from `fn` stops the walk
  /// and is returned. Through a non-const node the walker also frees every
  /// child table the callback left empty.
  template <typename NodeT, typename Fn>
  static bool walk(NodeT& node, int level, VirtAddr base, VirtAddr lo, VirtAddr hi, Fn& fn);

  /// Clear every leaf intersecting [lo, hi); returns how many were cleared.
  std::uint64_t clear_range(VirtAddr lo, VirtAddr hi);

  std::unique_ptr<Node> root_;  // level 3 (PML4)
  std::uint64_t mapped_pages_ = 0;
};

template <typename NodeT, typename Fn>
bool PageTable::walk(NodeT& node, int level, VirtAddr base, VirtAddr lo, VirtAddr hi, Fn& fn) {
  constexpr bool kMutable = !std::is_const_v<NodeT>;
  using ChildT = std::conditional_t<kMutable, Node, const Node>;
  const std::uint64_t span = std::uint64_t{1} << level_shift(level);
  const std::size_t last = index_at(hi - 1, level);
  for (std::size_t i = index_at(lo, level); i <= last; ++i) {
    auto& e = node.entries[i];
    if (!e.present()) continue;
    const VirtAddr va = base + i * span;
    if (e.leaf()) {
      if (!fn(e, va, level)) return false;
      continue;
    }
    ChildT& child = *e.child();
    const bool more =
        walk(child, level - 1, va, std::max(lo, va), std::min(hi, va + span), fn);
    if constexpr (kMutable) {
      if (empty(child)) {
        delete &child;
        e = Entry{};
      }
    }
    if (!more) return false;
  }
  return true;
}

template <typename Fn>
void PageTable::for_each_leaf(VirtAddr va, std::uint64_t len, Fn&& fn) const {
  if (len == 0 || va >= kVaLimit) return;
  const VirtAddr hi = len > kVaLimit - va ? kVaLimit : va + len;
  auto visit = [&fn](const Entry& e, VirtAddr leaf_va, int level) {
    return fn(Leaf{leaf_va, e.pa(), std::uint64_t{1} << level_shift(level), e.prot()});
  };
  (void)walk(std::as_const(*root_), 3, 0, va, hi, visit);
}

}  // namespace pd::mem
