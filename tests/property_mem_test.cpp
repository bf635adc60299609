// Property tests over the memory subsystem composites: random
// mmap/munmap/gup sequences must conserve physical memory, keep pin
// counts balanced, and keep translations consistent, under both backing
// policies; per-frame pin counts and the kernel heap must match reference
// models.
//
// The FlatMapOracle, PinOracle and PageTableOracle cases use a fixed default
// seed, overridable with PD_PROPERTY_SEED; a failure prints the seed that
// reproduces it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/kheap.hpp"
#include "src/mem/page_table.hpp"

namespace pd::mem {
namespace {

struct AsCase {
  BackingPolicy policy;
  std::uint64_t seed;
};

class AddressSpaceProperty : public testing::TestWithParam<AsCase> {};

TEST_P(AddressSpaceProperty, RandomMmapChurnConservesEverything) {
  const AsCase c = GetParam();
  PhysMap phys = PhysMap::knl(128_MiB, 256_MiB, 2);
  const std::uint64_t initial =
      phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr);
  Rng rng(c.seed);

  {
    AddressSpace as(phys, c.policy, MemKind::mcdram, 0x30'0000'0000ull, c.seed ^ 0xF00D);
    struct Region {
      VirtAddr va;
      std::uint64_t len;
    };
    std::vector<Region> live;
    std::vector<std::pair<Region, PinnedPages>> pinned;

    for (int step = 0; step < 600; ++step) {
      const int op = static_cast<int>(rng.next_below(10));
      if (op < 4) {  // mmap
        const std::uint64_t len = (1 + rng.next_below(512)) * kPage4K;
        auto va = as.mmap_anonymous(len, kProtRead | kProtWrite);
        if (va.ok()) live.push_back({*va, len});
      } else if (op < 7 && !live.empty()) {  // munmap a random region
        const std::size_t pick = rng.next_below(live.size());
        // Skip regions with outstanding explicit pins (driver semantics:
        // unmap while DMA-pinned is the app's bug; the model test avoids it).
        bool has_pin = false;
        for (const auto& [region, pages] : pinned)
          if (region.va == live[pick].va) has_pin = true;
        if (!has_pin) {
          ASSERT_TRUE(as.munmap(live[pick].va, live[pick].len).ok());
          live[pick] = live.back();
          live.pop_back();
        }
      } else if (op < 9 && !live.empty()) {  // gup a sub-range
        const std::size_t pick = rng.next_below(live.size());
        const Region r = live[pick];
        const std::uint64_t off = rng.next_below(r.len / kPage4K) * kPage4K;
        const std::uint64_t len = std::min<std::uint64_t>(r.len - off, 8 * kPage4K);
        auto pages = as.get_user_pages(r.va + off, len);
        ASSERT_TRUE(pages.ok());
        pinned.emplace_back(r, std::move(*pages));
      } else if (!pinned.empty()) {  // release a pin set
        const std::size_t pick = rng.next_below(pinned.size());
        as.put_user_pages(pinned[pick].second);
        pinned[pick] = std::move(pinned.back());
        pinned.pop_back();
      }

      // Invariants after every step.
      for (const auto& r : live) {
        auto t = as.translate(r.va + rng.next_below(r.len));
        ASSERT_TRUE(t.has_value()) << "live region must stay mapped";
      }
    }
    for (auto& [region, pages] : pinned) as.put_user_pages(pages);
    // Destructor releases everything still mapped.
  }
  EXPECT_EQ(phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr), initial)
      << "physical memory leaked or double-freed";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AddressSpaceProperty,
    testing::Values(AsCase{BackingPolicy::linux_4k, 11}, AsCase{BackingPolicy::linux_4k, 22},
                    AsCase{BackingPolicy::lwk_contig, 33},
                    AsCase{BackingPolicy::lwk_contig, 44}));

class KheapProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(KheapProperty, MatchesReferenceUnderRandomTraffic) {
  Rng rng(GetParam() * 7);
  KernelHeap heap({8, 9, 10, 11}, ForeignFreePolicy::remote_queue);
  std::map<PhysAddr, std::uint64_t> reference;  // addr → size
  std::uint64_t parked = 0;                     // on remote queues

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.next_below(10));
    if (op < 5) {  // alloc on a random owned cpu
      const std::uint64_t size = 16 + rng.next_below(512);
      auto a = heap.kmalloc(size, 8 + static_cast<int>(rng.next_below(4)));
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(reference.count(*a), 0u);
      reference[*a] = size;
      // Memory must be zeroed and writable.
      auto bytes = heap.data(*a);
      ASSERT_EQ(bytes.size(), size);
      ASSERT_EQ(bytes[0], 0);
      bytes[0] = 0xAB;
    } else if (op < 8 && !reference.empty()) {  // local free
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.next_below(reference.size())));
      ASSERT_TRUE(heap.kfree(it->first, 9).ok());
      reference.erase(it);
    } else if (!reference.empty()) {  // foreign (IRQ-side) free
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.next_below(reference.size())));
      ASSERT_TRUE(heap.kfree(it->first, /*linux cpu=*/0).ok());
      reference.erase(it);
      ++parked;
      if (rng.next_double() < 0.3) {  // occasional scheduler-tick drain
        for (int cpu : {8, 9, 10, 11}) heap.drain_remote_frees(cpu);
        parked = 0;
      }
    }
    ASSERT_EQ(heap.live_blocks(), reference.size() + parked);
  }
  for (int cpu : {8, 9, 10, 11}) heap.drain_remote_frees(cpu);
  EXPECT_EQ(heap.live_blocks(), reference.size());
  EXPECT_EQ(heap.stats().rejected_frees, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KheapProperty, testing::Values(3, 7, 31));

std::uint64_t harness_seed() {
  if (const char* env = std::getenv("PD_PROPERTY_SEED"); env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 0);
  return 0x914CAFEull;
}

TEST(FlatMapOracle, MatchesReferenceThroughGrowthAndDeletes) {
  // Keys from a small range keep the table dense: long probe chains that
  // wrap around the end of the slot array, then deletes in the middle of
  // them, then lookups that must still walk the shifted chains.
  const std::uint64_t seed = harness_seed();
  SCOPED_TRACE(testing::Message() << "PD_PROPERTY_SEED=" << seed);
  Rng rng(seed);
  FlatMap32<std::uint32_t> map;
  std::map<std::uint32_t, std::uint32_t> ref;
  std::size_t peak = 0;
  for (int step = 0; step < 6'000; ++step) {
    // Grow for the first half, then drain, so the table doubles several
    // times and every chain is later torn down by backward shifts.
    const bool grow_phase = step < 3'000;
    const std::uint32_t key = static_cast<std::uint32_t>(rng.next_below(2048));
    if (rng.next_below(4) < (grow_phase ? 3u : 1u)) {
      ++map[key];
      ++ref[key];
    } else {
      std::uint32_t* v = map.find(key);
      auto it = ref.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << key;
      if (v != nullptr && --*v == 0) {
        ASSERT_TRUE(map.erase(key));
      }
      if (it != ref.end() && --it->second == 0) ref.erase(it);
    }
    peak = std::max(peak, ref.size());
    ASSERT_EQ(map.size(), ref.size());
    // Every live key must still be reachable after the deletes.
    for (const auto& [k, count] : ref) {
      const std::uint32_t* v = map.find(k);
      ASSERT_NE(v, nullptr) << "key " << k << " lost at step " << step;
      ASSERT_EQ(*v, count) << "key " << k;
    }
  }
  EXPECT_GT(peak, 1024u) << "the table must have grown past several doublings";
  EXPECT_FALSE(map.erase(0xFFFF)) << "absent key";
}

TEST(PageTableOracle, MapUnmapMatchesReference) {
  // Random 4K/2M/1G map, unmap and unmap_range against a map of leaves.
  // Addresses are drawn from a few small windows (one straddling a
  // top-level boundary, one in the high canonical half) so pages collide,
  // share tables and empty them again. A map succeeds iff no existing leaf
  // overlaps it; a table exists iff some leaf lies under it.
  const std::uint64_t seed = harness_seed();
  SCOPED_TRACE(testing::Message() << "PD_PROPERTY_SEED=" << seed);
  Rng rng(seed);
  struct Ref {
    PhysAddr pa;
    std::uint64_t page;
    std::uint32_t prot;
  };
  std::map<VirtAddr, Ref> ref;  // leaf start -> mapping
  auto containing = [&](VirtAddr va) -> const std::pair<const VirtAddr, Ref>* {
    auto it = ref.upper_bound(va);
    if (it == ref.begin()) return nullptr;
    --it;
    return va < it->first + it->second.page ? &*it : nullptr;
  };
  auto overlaps = [&](VirtAddr lo, VirtAddr hi) {
    auto it = ref.lower_bound(lo);
    if (it != ref.end() && it->first < hi) return true;
    return containing(lo) != nullptr;
  };
  auto erase_range = [&](VirtAddr lo, VirtAddr hi) {
    std::size_t n = 0;
    for (auto it = ref.begin(); it != ref.end();) {
      if (it->first < hi && lo < it->first + it->second.page) {
        it = ref.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  };
  auto expected_tables = [&] {
    std::set<VirtAddr> l2, l1, l0;  // tables under the root, by VA prefix
    for (const auto& [va, r] : ref) {
      l2.insert(va >> 39);
      if (r.page <= kPage2M) l1.insert(va >> 30);
      if (r.page == kPage4K) l0.insert(va >> 21);
    }
    return 1 + l2.size() + l1.size() + l0.size();
  };

  constexpr VirtAddr kWindows[] = {0x40'0000'0000ull, 0x7F'8000'0000ull,
                                   0xFFFF'8800'0000'0000ull & ((1ull << 48) - 1)};
  auto draw_va = [&](std::uint64_t page) {
    const VirtAddr base = kWindows[rng.next_below(3)];
    const VirtAddr gig = base + rng.next_below(2) * kPage1G;
    if (page == kPage1G) return gig;
    const VirtAddr slot = gig + rng.next_below(4) * kPage2M;
    if (page == kPage2M) return slot;
    return slot + rng.next_below(rng.next_below(4) == 0 ? 512 : 8) * kPage4K;
  };
  constexpr std::uint64_t kPages[] = {kPage4K, kPage4K, kPage4K, kPage2M, kPage2M, kPage1G};

  PageTable pt;
  std::size_t peak_tables = 0;
  for (int step = 0; step < 4000; ++step) {
    const int op = static_cast<int>(rng.next_below(10));
    if (op < 5) {  // map
      const std::uint64_t page = kPages[rng.next_below(6)];
      const VirtAddr va = draw_va(page);
      const PhysAddr pa = rng.next_below(64) * page;
      const std::uint32_t prot = static_cast<std::uint32_t>(rng.next_below(8));
      const bool expect_ok = !overlaps(va, va + page);
      const Status s = pt.map(va, pa, page, prot);
      ASSERT_EQ(s.ok(), expect_ok) << "step " << step << " map " << std::hex << va;
      if (!expect_ok) {
        ASSERT_EQ(s.error(), Errno::eexist);
      } else {
        ref.emplace(va, Ref{pa, page, prot});
      }
    } else if (op < 8) {  // unmap one page, usually a mapped one
      VirtAddr va = draw_va(kPage4K) + rng.next_below(kPage4K);
      if (!ref.empty() && rng.next_below(4) != 0) {
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.next_below(ref.size())));
        va = it->first + rng.next_below(it->second.page);
      }
      const bool expect_ok = containing(va) != nullptr;
      const Status s = pt.unmap(va);
      ASSERT_EQ(s.ok(), expect_ok) << "step " << step << " unmap " << std::hex << va;
      if (expect_ok) {
        ref.erase(containing(va)->first);
      } else {
        ASSERT_EQ(s.error(), Errno::enoent);
      }
    } else {  // unmap_range over a few pages to a few GiB
      const VirtAddr va = draw_va(kPage4K) + rng.next_below(kPage4K);
      const std::uint64_t len = rng.next_below(2) == 0 ? rng.next_below(16 * kPage4K)
                                                       : rng.next_below(3 * kPage1G);
      pt.unmap_range(va, len);
      (void)erase_range(page_floor(va, kPage4K), page_ceil(va + len, kPage4K));
    }

    ASSERT_EQ(pt.mapped_pages(), ref.size()) << "step " << step;
    ASSERT_EQ(pt.table_count(), expected_tables()) << "step " << step;
    peak_tables = std::max<std::size_t>(peak_tables, pt.table_count());
    for (int probe = 0; probe < 8; ++probe) {
      VirtAddr va = draw_va(kPage4K) + rng.next_below(kPage4K);
      if (!ref.empty() && probe % 2 == 0) {
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.next_below(ref.size())));
        va = it->first + rng.next_below(it->second.page);
      }
      const auto t = pt.translate(va);
      const auto* want = containing(va);
      ASSERT_EQ(t.has_value(), want != nullptr) << "step " << step << std::hex << " va " << va;
      if (want != nullptr) {
        ASSERT_EQ(t->pa, want->second.pa + (va - want->first)) << "step " << step;
        ASSERT_EQ(t->page, want->second.page) << "step " << step;
        ASSERT_EQ(t->prot, want->second.prot) << "step " << step;
      }
    }
    // The range walker sees exactly the reference leaves in a window.
    const VirtAddr lo = draw_va(kPage4K);
    const std::uint64_t len = rng.next_below(2 * kPage1G) + 1;
    std::vector<VirtAddr> walked, want;
    pt.for_each_leaf(lo, len, [&](const PageTable::Leaf& l) {
      walked.push_back(l.va);
      return true;
    });
    for (const auto& [va, r] : ref)
      if (va < lo + len && lo < va + r.page) want.push_back(va);
    ASSERT_EQ(walked, want) << "step " << step;
  }
  EXPECT_GT(peak_tables, 8u) << "the oracle must have built several tables";
  pt.unmap_range(0, std::uint64_t{1} << 48);
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_EQ(pt.table_count(), 1u);
}

class PinOracle : public testing::TestWithParam<BackingPolicy> {};

TEST_P(PinOracle, PinCountsMatchReference) {
  // Random mmap/munmap/gup/put against a per-frame reference count: an LWK
  // mapping holds each of its frames once for as long as it is mapped, and
  // every get_user_pages adds one more until put. Regions may be unmapped
  // with pins outstanding, so freed frames keep their gup pins and can be
  // handed out again under a new mapping.
  const BackingPolicy policy = GetParam();
  const std::uint64_t seed = harness_seed() ^ static_cast<std::uint64_t>(policy);
  SCOPED_TRACE(testing::Message() << "PD_PROPERTY_SEED=" << harness_seed());
  Rng rng(seed);
  PhysMap phys = PhysMap::knl(64_MiB, 64_MiB, 1);
  std::map<PhysAddr, std::uint32_t> ref;  // frame -> pins (mapping hold + gups)
  auto add = [&](PhysAddr frame) { ++ref[frame]; };
  auto drop = [&](PhysAddr frame) {
    auto it = ref.find(frame);
    ASSERT_NE(it, ref.end());
    if (--it->second == 0) ref.erase(it);
  };
  struct Region {
    VirtAddr va;
    std::uint64_t len;
    std::vector<PhysAddr> frames;
  };
  std::vector<Region> live;
  std::vector<PinnedPages> pinned;
  std::vector<PhysAddr> released;  // frames whose last op dropped a pin
  std::size_t peak_gup_frames = 0;
  {
    AddressSpace as(phys, policy, MemKind::mcdram, 0x30'0000'0000ull, seed);
    const bool held = policy == BackingPolicy::lwk_contig;
    for (int step = 0; step < 2000; ++step) {
      released.clear();
      const int op = static_cast<int>(rng.next_below(10));
      if (op < 2 || live.empty()) {  // mmap
        const std::uint64_t len = (1 + rng.next_below(256)) * kPage4K;
        auto va = as.mmap_anonymous(len, kProtRead | kProtWrite);
        if (!va.ok()) continue;
        Region r{*va, len, {}};
        for (std::uint64_t off = 0; off < len; off += kPage4K)
          r.frames.push_back(page_floor(as.translate(*va + off)->pa, kPage4K));
        if (held)
          for (PhysAddr f : r.frames) add(f);
        live.push_back(std::move(r));
      } else if (op < 4) {  // munmap, pins or not
        const std::size_t pick = rng.next_below(live.size());
        ASSERT_TRUE(as.munmap(live[pick].va, live[pick].len).ok());
        if (held)
          for (PhysAddr f : live[pick].frames) {
            drop(f);
            released.push_back(f);
          }
        live[pick] = std::move(live.back());
        live.pop_back();
      } else if (op < 7) {  // gup a sub-range
        const Region& r = live[rng.next_below(live.size())];
        const std::uint64_t off = rng.next_below(r.len / kPage4K) * kPage4K;
        const std::uint64_t len = std::min<std::uint64_t>(r.len - off, 64 * kPage4K);
        auto pages = as.get_user_pages(r.va + off, len);
        ASSERT_TRUE(pages.ok());
        for (PhysAddr f : pages->frames) add(f);
        pinned.push_back(std::move(*pages));
      } else if (!pinned.empty()) {  // put a pin set
        const std::size_t pick = rng.next_below(pinned.size());
        as.put_user_pages(pinned[pick]);
        for (PhysAddr f : pinned[pick].frames) {
          drop(f);
          released.push_back(f);
        }
        pinned[pick] = std::move(pinned.back());
        pinned.pop_back();
      }

      std::size_t gup_frames = 0;
      for (const PinnedPages& p : pinned) gup_frames += p.frames.size();
      peak_gup_frames = std::max(peak_gup_frames, gup_frames);

      ASSERT_EQ(as.pinned_frame_count(), ref.size()) << "step " << step;
      for (const PinnedPages& p : pinned)
        for (PhysAddr f : p.frames) ASSERT_TRUE(as.is_pinned(f)) << "step " << step;
      for (PhysAddr f : released)
        ASSERT_EQ(as.is_pinned(f), ref.count(f) > 0) << "step " << step;
      if (!live.empty()) {
        const Region& r = live[rng.next_below(live.size())];
        const PhysAddr f = r.frames[rng.next_below(r.frames.size())];
        ASSERT_EQ(as.is_pinned(f + rng.next_below(kPage4K)), ref.count(f) > 0) << "step " << step;
      }
    }
    for (const PinnedPages& p : pinned) as.put_user_pages(p);
    if (!held) {
      EXPECT_EQ(as.pinned_frame_count(), 0u);
    }
  }
  EXPECT_GT(peak_gup_frames, 256u) << "the pin table must have grown several times";
}

INSTANTIATE_TEST_SUITE_P(Policies, PinOracle,
                         testing::Values(BackingPolicy::linux_4k, BackingPolicy::lwk_contig),
                         [](const testing::TestParamInfo<BackingPolicy>& info) {
                           return info.param == BackingPolicy::linux_4k ? "linux_4k"
                                                                        : "lwk_contig";
                         });

}  // namespace
}  // namespace pd::mem
