// Tests for the 4-level page table: mapping, translation, large pages,
// unmapping, rollback, table freeing and the range walker.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/mem/page_table.hpp"

namespace pd::mem {
namespace {

TEST(PageTable, Map4kTranslates) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, kProtRead | kProtWrite).ok());
  auto t = pt.translate(0x1234);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0xA234u);
  EXPECT_EQ(t->page, kPage4K);
  EXPECT_EQ(t->prot, kProtRead | kProtWrite);
}

TEST(PageTable, UnmappedReturnsNullopt) {
  PageTable pt;
  EXPECT_FALSE(pt.translate(0x5000).has_value());
}

TEST(PageTable, Map2mTranslatesInterior) {
  PageTable pt;
  const VirtAddr va = 0x4000'0000;  // 2 MiB aligned
  const PhysAddr pa = 0x2000'0000;
  ASSERT_TRUE(pt.map(va, pa, kPage2M, kProtRead).ok());
  auto t = pt.translate(va + 0x12345);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, pa + 0x12345);
  EXPECT_EQ(t->page, kPage2M);
}

TEST(PageTable, RejectsMisalignment) {
  PageTable pt;
  EXPECT_FALSE(pt.map(0x1001, 0xA000, kPage4K, 0).ok());
  EXPECT_FALSE(pt.map(0x1000, 0xA001, kPage4K, 0).ok());
  EXPECT_FALSE(pt.map(kPage4K, 0, kPage2M, 0).ok());  // 4K-aligned only
  EXPECT_FALSE(pt.map(0, 0, 12345, 0).ok());          // bogus page size
}

TEST(PageTable, RejectsDoubleMap) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, 0).ok());
  EXPECT_EQ(pt.map(0x1000, 0xB000, kPage4K, 0).error(), Errno::eexist);
}

TEST(PageTable, RejectsMappingUnderLargePage) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x4000'0000, 0x2000'0000, kPage2M, 0).ok());
  EXPECT_EQ(pt.map(0x4000'1000, 0xC000, kPage4K, 0).error(), Errno::eexist);
}

TEST(PageTable, UnmapRemoves) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, 0).ok());
  EXPECT_EQ(pt.mapped_pages(), 1u);
  ASSERT_TRUE(pt.unmap(0x1000).ok());
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_FALSE(pt.translate(0x1000).has_value());
  EXPECT_EQ(pt.unmap(0x1000).error(), Errno::enoent);
}

TEST(PageTable, MapRangeCoversAllPages) {
  PageTable pt;
  ASSERT_TRUE(pt.map_range(0x10000, 0xA0000, 16 * kPage4K, kPage4K, kProtRead).ok());
  for (std::uint64_t off = 0; off < 16 * kPage4K; off += kPage4K) {
    auto t = pt.translate(0x10000 + off);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0xA0000 + off);
  }
}

TEST(PageTable, MapRangeRollsBackOnConflict) {
  PageTable pt;
  // Pre-existing page in the middle of the range.
  ASSERT_TRUE(pt.map(0x13000, 0xF000, kPage4K, 0).ok());
  EXPECT_FALSE(pt.map_range(0x10000, 0xA0000, 8 * kPage4K, kPage4K, 0).ok());
  // Pages before the conflict must have been unwound.
  EXPECT_FALSE(pt.translate(0x10000).has_value());
  EXPECT_FALSE(pt.translate(0x12000).has_value());
  EXPECT_TRUE(pt.translate(0x13000).has_value());
  EXPECT_EQ(pt.mapped_pages(), 1u);
}

TEST(PageTable, UnmapRangeMixedPageSizes) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x4000'0000, 0x2000'0000, kPage2M, 0).ok());
  ASSERT_TRUE(pt.map(0x4020'0000, 0x3000'0000, kPage4K, 0).ok());
  pt.unmap_range(0x4000'0000, kPage2M + kPage4K);
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(PageTable, HighCanonicalAddresses) {
  // Kernel-space addresses (top of the 48-bit hole) must work: the direct
  // map and kernel images live there.
  PageTable pt;
  const VirtAddr va = 0xFFFF'8800'0000'0000ull & ((1ull << 48) - 1);
  ASSERT_TRUE(pt.map(va, 0x1000, kPage4K, kProtRead).ok());
  auto t = pt.translate(va + 4);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0x1004u);
}

TEST(PageTable, ManyMappingsStressAndTranslate) {
  PageTable pt;
  constexpr int kPages = 4096;
  for (int i = 0; i < kPages; ++i)
    ASSERT_TRUE(pt.map(0x100000 + static_cast<VirtAddr>(i) * kPage4K,
                       0x10'0000'0000ull + static_cast<PhysAddr>(i) * kPage4K, kPage4K, 0)
                    .ok());
  EXPECT_EQ(pt.mapped_pages(), static_cast<std::uint64_t>(kPages));
  for (int i = 0; i < kPages; i += 97) {
    auto t = pt.translate(0x100000 + static_cast<VirtAddr>(i) * kPage4K + 7);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0x10'0000'0000ull + static_cast<PhysAddr>(i) * kPage4K + 7);
  }
}

TEST(PageTable, RejectsUnknownProtBits) {
  PageTable pt;
  EXPECT_EQ(pt.map(0x1000, 0xA000, kPage4K, 1u << 3).error(), Errno::einval);
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, kProtRead | kProtWrite | kProtExec).ok());
  EXPECT_EQ(pt.translate(0x1000)->prot, kProtRead | kProtWrite | kProtExec);
}

TEST(PageTable, Map2mAfterEvery4kLeafInSlotUnmapped) {
  PageTable pt;
  const VirtAddr slot = 0x4000'0000;
  for (std::uint64_t off = 0; off < 8 * kPage4K; off += kPage4K)
    ASSERT_TRUE(pt.map(slot + off, 0xA0000 + off, kPage4K, kProtRead).ok());
  EXPECT_EQ(pt.map(slot, 0x2000'0000, kPage2M, kProtRead).error(), Errno::eexist);
  for (std::uint64_t off = 0; off < 8 * kPage4K; off += kPage4K)
    ASSERT_TRUE(pt.unmap(slot + off).ok());
  ASSERT_TRUE(pt.map(slot, 0x2000'0000, kPage2M, kProtRead).ok());
  EXPECT_EQ(pt.translate(slot + 0x1234)->pa, 0x2000'1234u);
}

TEST(PageTable, Map1gAfterEvery2mAnd4kLeafInSlotUnmapped) {
  PageTable pt;
  const VirtAddr slot = 0x80'0000'0000ull;
  ASSERT_TRUE(pt.map(slot, 0x2000'0000, kPage2M, 0).ok());
  ASSERT_TRUE(pt.map(slot + kPage2M, 0xA000, kPage4K, 0).ok());
  EXPECT_EQ(pt.map(slot, 0, kPage1G, 0).error(), Errno::eexist);
  pt.unmap_range(slot, kPage1G);
  EXPECT_TRUE(pt.map(slot, 0, kPage1G, 0).ok());
}

struct FreeCase {
  const char* name;
  VirtAddr va;
  std::uint64_t page;
  int pages;
};

class TableFreeing : public testing::TestWithParam<FreeCase> {};

TEST_P(TableFreeing, TableCountReturnsToOneOnceEverythingIsUnmapped) {
  const FreeCase c = GetParam();
  PageTable pt;
  EXPECT_EQ(pt.table_count(), 1u);
  for (int i = 0; i < c.pages; ++i)
    ASSERT_TRUE(pt.map(c.va + i * c.page, i * c.page, c.page, kProtRead).ok());
  EXPECT_GT(pt.table_count(), 1u);
  // Unmap one page at a time: tables are freed as they empty, never early.
  for (int i = 0; i < c.pages; ++i) {
    ASSERT_TRUE(pt.unmap(c.va + i * c.page).ok());
    if (i + 1 < c.pages) {
      ASSERT_TRUE(pt.translate(c.va + (i + 1) * c.page).has_value());
    }
  }
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_EQ(pt.table_count(), 1u);

  // The same through unmap_range, which also frees the emptied tables.
  ASSERT_TRUE(pt.map_range(c.va, 0, c.pages * c.page, c.page, kProtRead).ok());
  pt.unmap_range(c.va, c.pages * c.page);
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_EQ(pt.table_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    PageSizes, TableFreeing,
    testing::Values(
        // 600 x 4 KiB crosses a leaf-table boundary.
        FreeCase{"page4k", 0x7F'FFE0'0000ull, kPage4K, 600},
        FreeCase{"page2m", 0x3F'C000'0000ull, kPage2M, 600},
        FreeCase{"page1g", 0x7E'0000'0000ull, kPage1G, 3},
        FreeCase{"high_canonical", 0xFFFF'8800'0000'0000ull & ((1ull << 48) - 1), kPage4K,
                 16}),
    [](const testing::TestParamInfo<FreeCase>& info) { return info.param.name; });

TEST(PageTable, PartialUnmapKeepsSharedTables) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, 0).ok());
  ASSERT_TRUE(pt.map(0x2000, 0xB000, kPage4K, 0).ok());
  const std::uint64_t tables = pt.table_count();
  EXPECT_EQ(tables, 4u);  // root + one table per lower level
  ASSERT_TRUE(pt.unmap(0x1000).ok());
  EXPECT_EQ(pt.table_count(), tables);
  EXPECT_EQ(pt.translate(0x2000)->pa, 0xB000u);
  ASSERT_TRUE(pt.unmap(0x2000).ok());
  EXPECT_EQ(pt.table_count(), 1u);
}

TEST(PageTable, FailedMapRangeLeavesNoTables) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x40'0000'0000ull + 5 * kPage2M, 0, kPage2M, 0).ok());
  const std::uint64_t tables = pt.table_count();
  EXPECT_FALSE(pt.map_range(0x40'0000'0000ull + kPage2M - 16 * kPage4K, 0, 6 * kPage2M,
                            kPage4K, 0)
                   .ok());
  EXPECT_EQ(pt.mapped_pages(), 1u);
  EXPECT_EQ(pt.table_count(), tables);
}

TEST(PageTable, ForEachLeafVisitsIntersectingLeavesInOrder) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x4000'0000, 0x2000'0000, kPage2M, kProtRead).ok());
  ASSERT_TRUE(pt.map(0x4020'0000, 0xA000, kPage4K, kProtWrite).ok());
  ASSERT_TRUE(pt.map(0x4020'2000, 0xC000, kPage4K, kProtWrite).ok());
  ASSERT_TRUE(pt.map(0x80'0000'0000ull, 0x4000'0000, kPage1G, kProtExec).ok());
  std::vector<PageTable::Leaf> seen;
  auto collect = [&](const PageTable::Leaf& l) {
    seen.push_back(l);
    return true;
  };
  // Starts inside the 2 MiB leaf, spans the 4 KiB hole and the huge gap.
  pt.for_each_leaf(0x4010'0000, 0x80'0000'0000ull, collect);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].va, 0x4000'0000u);
  EXPECT_EQ(seen[0].pa, 0x2000'0000u);
  EXPECT_EQ(seen[0].page, kPage2M);
  EXPECT_EQ(seen[0].prot, kProtRead);
  EXPECT_EQ(seen[1].va, 0x4020'0000u);
  EXPECT_EQ(seen[2].va, 0x4020'2000u);
  EXPECT_EQ(seen[2].pa, 0xC000u);
  EXPECT_EQ(seen[3].va, 0x80'0000'0000ull);
  EXPECT_EQ(seen[3].page, kPage1G);

  // Early stop, and a range that ends exactly where a leaf begins.
  seen.clear();
  pt.for_each_leaf(0x4000'0000, kPage2M + 1, [&](const PageTable::Leaf& l) {
    seen.push_back(l);
    return seen.size() < 1;
  });
  EXPECT_EQ(seen.size(), 1u);
  seen.clear();
  pt.for_each_leaf(0x4020'1000, kPage4K, collect);
  EXPECT_TRUE(seen.empty());
}

TEST(PageTable, MoveAssignmentReleasesTheOldTree) {
  PageTable a;
  ASSERT_TRUE(a.map(0x1000, 0xA000, kPage4K, 0).ok());
  PageTable b;
  ASSERT_TRUE(b.map(0x7F'0000'0000ull, 0, kPage1G, 0).ok());
  b = std::move(a);  // b's old tables must not leak (LeakSanitizer checks)
  EXPECT_EQ(b.mapped_pages(), 1u);
  EXPECT_EQ(b.translate(0x1000)->pa, 0xA000u);
  EXPECT_FALSE(b.translate(0x7F'0000'0000ull).has_value());
}

}  // namespace
}  // namespace pd::mem
