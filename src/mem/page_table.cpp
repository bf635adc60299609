#include "src/mem/page_table.hpp"

#include <cassert>

namespace pd::mem {

PageTable::PageTable() : root_(std::make_unique<Node>()) {}

PageTable::~PageTable() {
  if (root_) free_children(*root_, 3);
}

PageTable& PageTable::operator=(PageTable&& other) noexcept {
  if (this != &other) {
    if (root_) free_children(*root_, 3);
    root_ = std::move(other.root_);
    mapped_pages_ = std::exchange(other.mapped_pages_, 0);
  }
  return *this;
}

void PageTable::free_children(Node& node, int level) {
  if (level == 0) return;  // level-0 entries are all leaves
  for (const Entry& e : node.entries) {
    if (!e.present() || e.leaf()) continue;
    free_children(*e.child(), level - 1);
    delete e.child();
  }
}

std::uint64_t PageTable::count_tables(const Node& node, int level) {
  std::uint64_t n = 1;
  if (level == 0) return n;
  for (const Entry& e : node.entries)
    if (e.present() && !e.leaf()) n += count_tables(*e.child(), level - 1);
  return n;
}

std::uint64_t PageTable::table_count() const { return count_tables(*root_, 3); }

Status PageTable::map(VirtAddr va, PhysAddr pa, std::uint64_t page_size, std::uint32_t prot) {
  if (page_size != kPage4K && page_size != kPage2M && page_size != kPage1G)
    return Errno::einval;
  if (!page_aligned(va, page_size) || !page_aligned(pa, page_size)) return Errno::einval;
  if ((prot & ~Entry::kProtMask) != 0) return Errno::einval;

  const int leaf_level = page_size == kPage4K ? 0 : (page_size == kPage2M ? 1 : 2);
  Node* node = root_.get();
  for (int level = 3; level > leaf_level; --level) {
    Entry& e = node->entries[index_at(va, level)];
    if (e.leaf()) return Errno::eexist;  // covered by a larger page
    if (!e.present()) e = Entry::table_of(new Node());
    node = e.child();
  }
  // A present entry here is a leaf or a table with at least one mapping
  // under it (empty tables are freed on unmap): either way, a conflict.
  Entry& e = node->entries[index_at(va, leaf_level)];
  if (e.present()) return Errno::eexist;
  e = Entry::leaf_of(pa, prot);
  ++mapped_pages_;
  return Status::success();
}

Status PageTable::map_range(VirtAddr va, PhysAddr pa, std::uint64_t len, std::uint64_t page_size,
                            std::uint32_t prot) {
  if (!page_aligned(len, page_size)) return Errno::einval;
  for (std::uint64_t off = 0; off < len; off += page_size) {
    if (Status s = map(va + off, pa + off, page_size, prot); !s.ok()) {
      // Roll back what was mapped so a failed range leaves no residue: the
      // first conflict is at `off`, so [va, va+off) holds only our pages.
      unmap_range(va, off);
      return s;
    }
  }
  return Status::success();
}

std::uint64_t PageTable::clear_range(VirtAddr lo, VirtAddr hi) {
  if (lo >= hi || lo >= kVaLimit) return 0;
  std::uint64_t cleared = 0;
  auto clear = [&](Entry& e, VirtAddr, int) {
    e = Entry{};
    ++cleared;
    return true;
  };
  (void)walk(*root_, 3, 0, lo, std::min(hi, kVaLimit), clear);
  mapped_pages_ -= cleared;
  return cleared;
}

Status PageTable::unmap(VirtAddr va) {
  return clear_range(va, va + 1) == 0 ? Status{Errno::enoent} : Status::success();
}

void PageTable::unmap_range(VirtAddr va, std::uint64_t len) {
  (void)clear_range(page_floor(va, kPage4K), page_ceil(va + len, kPage4K));
}

std::optional<Translation> PageTable::translate(VirtAddr va) const {
  const Node* node = root_.get();
  for (int level = 3; level >= 0; --level) {
    const Entry& e = node->entries[index_at(va, level)];
    if (!e.present()) return std::nullopt;
    if (e.leaf()) {
      assert(level <= 2);
      const std::uint64_t page = std::uint64_t{1} << level_shift(level);
      Translation t;
      t.page = page;
      t.pa = e.pa() + (va & (page - 1));
      t.prot = e.prot();
      return t;
    }
    node = e.child();
  }
  return std::nullopt;
}

}  // namespace pd::mem
