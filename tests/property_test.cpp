// Property-based tests: randomized operation sequences checked against
// reference models / invariants, parameterized over seeds and shapes
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/dwarf/leb128.hpp"
#include "src/hw/rcv_array.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/page_table.hpp"
#include "src/mem/phys.hpp"

namespace pd {
namespace {

// --- Buddy allocator: conservation, alignment, no overlap ------------------

class BuddyProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyProperty, RandomAllocFreeKeepsInvariants) {
  Rng rng(GetParam());
  mem::BuddyAllocator buddy(0x100000, 32_MiB);
  const std::uint64_t capacity = buddy.free_bytes_total();

  struct Live {
    mem::PhysAddr addr;
    std::uint64_t bytes;  // rounded block size
  };
  std::vector<Live> live;
  std::uint64_t live_bytes = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = live.empty() || rng.next_double() < 0.55;
    if (do_alloc) {
      const std::uint64_t req = 1ull << (12 + rng.next_below(8));  // 4K..512K
      auto a = buddy.alloc(req);
      if (!a.ok()) continue;  // pool exhausted is fine
      const std::uint64_t block = 1ull << mem::BuddyAllocator::order_for(req);
      // Natural alignment.
      ASSERT_EQ((*a - 0x100000) % block, 0u);
      // No overlap with any live block.
      for (const auto& l : live) {
        const bool disjoint = *a + block <= l.addr || l.addr + l.bytes <= *a;
        ASSERT_TRUE(disjoint) << "overlapping allocation";
      }
      live.push_back({*a, block});
      live_bytes += block;
    } else {
      const std::size_t pick = rng.next_below(live.size());
      buddy.free_bytes(live[pick].addr, live[pick].bytes);
      live_bytes -= live[pick].bytes;
      live[pick] = live.back();
      live.pop_back();
    }
    // Conservation: free + live == capacity, always.
    ASSERT_EQ(buddy.free_bytes_total() + live_bytes, capacity);
  }
  for (const auto& l : live) buddy.free_bytes(l.addr, l.bytes);
  EXPECT_EQ(buddy.free_bytes_total(), capacity);
  // Full coalescing: the largest block must be allocatable again.
  EXPECT_TRUE(buddy.alloc(16_MiB).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty, testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Page table vs reference map -------------------------------------------

class PageTableProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableProperty, MatchesReferenceModel) {
  Rng rng(GetParam() * 7919);
  mem::PageTable pt;
  std::map<mem::VirtAddr, std::pair<mem::PhysAddr, std::uint64_t>> reference;  // va → (pa, size)

  auto covered = [&](mem::VirtAddr va) -> const std::pair<const mem::VirtAddr,
                                                          std::pair<mem::PhysAddr, std::uint64_t>>* {
    auto it = reference.upper_bound(va);
    if (it == reference.begin()) return nullptr;
    --it;
    return va < it->first + it->second.second ? &*it : nullptr;
  };

  for (int step = 0; step < 2000; ++step) {
    const bool large = rng.next_double() < 0.2;
    const std::uint64_t page = large ? mem::kPage2M : mem::kPage4K;
    const mem::VirtAddr va = mem::page_floor(rng.next_below(1ull << 32), page);
    const int op = static_cast<int>(rng.next_below(3));
    if (op < 2) {  // map
      const mem::PhysAddr pa = mem::page_floor(0x40000000ull + rng.next_below(1ull << 30), page);
      const Status s = pt.map(va, pa, page, mem::kProtRead);
      // Reference: mapping must succeed iff no byte of [va, va+page) is covered
      // and no existing page starts inside it.
      bool conflict = covered(va) != nullptr;
      if (!conflict) {
        auto it = reference.lower_bound(va);
        if (it != reference.end() && it->first < va + page) conflict = true;
      }
      ASSERT_EQ(s.ok(), !conflict) << std::hex << va;
      if (s.ok()) reference[va] = {pa, page};
    } else {  // unmap at a random known or unknown address
      const bool known = !reference.empty() && rng.next_double() < 0.7;
      mem::VirtAddr target = va;
      if (known) {
        auto it = reference.begin();
        std::advance(it, static_cast<long>(rng.next_below(reference.size())));
        target = it->first + rng.next_below(it->second.second);
      }
      const auto* ref = covered(target);
      const Status s = pt.unmap(target);
      ASSERT_EQ(s.ok(), ref != nullptr);
      if (ref != nullptr) reference.erase(ref->first);
    }
    ASSERT_EQ(pt.mapped_pages(), reference.size());
  }

  // Translation agrees everywhere we know about.
  for (const auto& [va, entry] : reference) {
    const std::uint64_t probe = rng.next_below(entry.second);
    auto t = pt.translate(va + probe);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, entry.first + probe);
    EXPECT_EQ(t->page, entry.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableProperty, testing::Values(1, 2, 3, 4, 5, 6));

// --- physical_extents: exact coverage under any policy/size/cap ------------

struct ExtentCase {
  mem::BackingPolicy policy;
  std::uint64_t bytes;
  std::uint64_t cap;
};

class ExtentsProperty : public testing::TestWithParam<ExtentCase> {};

TEST_P(ExtentsProperty, ExtentsExactlyTileTheRange) {
  const ExtentCase c = GetParam();
  mem::PhysMap phys = mem::PhysMap::knl(128_MiB, 256_MiB, 2);
  mem::AddressSpace as(phys, c.policy, mem::MemKind::mcdram, 0x10'0000'0000ull, 99);
  auto va = as.mmap_anonymous(c.bytes, mem::kProtRead);
  ASSERT_TRUE(va.ok());

  auto extents = as.physical_extents(*va, c.bytes, c.cap);
  ASSERT_TRUE(extents.ok());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < extents->size(); ++i) {
    const auto& e = (*extents)[i];
    ASSERT_GT(e.len, 0u);
    if (c.cap != 0) {
      ASSERT_LE(e.len, c.cap);
    }
    total += e.len;
    // Each extent's bytes must translate to exactly those physical bytes.
    const std::uint64_t off_in_range = total - e.len;
    auto t = as.translate(*va + off_in_range);
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->pa, e.pa);
  }
  EXPECT_EQ(total, c.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySizeCap, ExtentsProperty,
    testing::Values(ExtentCase{mem::BackingPolicy::lwk_contig, 64_KiB, 10240},
                    ExtentCase{mem::BackingPolicy::lwk_contig, 1_MiB, 10240},
                    ExtentCase{mem::BackingPolicy::lwk_contig, 3_MiB, 0},
                    ExtentCase{mem::BackingPolicy::lwk_contig, 5000, 4096},
                    ExtentCase{mem::BackingPolicy::linux_4k, 64_KiB, 10240},
                    ExtentCase{mem::BackingPolicy::linux_4k, 1_MiB, 10240},
                    ExtentCase{mem::BackingPolicy::linux_4k, 256_KiB, 0},
                    ExtentCase{mem::BackingPolicy::linux_4k, 12345, 8192}));

// --- LEB128 roundtrip fuzz ---------------------------------------------------

class LebProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(LebProperty, RandomRoundtrips) {
  Rng rng(GetParam() * 31337);
  for (int i = 0; i < 5000; ++i) {
    // Bias toward interesting magnitudes.
    const int shift = static_cast<int>(rng.next_below(64));
    const std::uint64_t u = rng.next_u64() >> shift;
    std::vector<std::uint8_t> buf;
    dwarf::write_uleb128(buf, u);
    dwarf::ByteCursor cur(buf.data(), buf.size());
    auto r = cur.read_uleb128();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, u);

    const std::int64_t s = static_cast<std::int64_t>(rng.next_u64()) >> shift;
    buf.clear();
    dwarf::write_sleb128(buf, s);
    dwarf::ByteCursor cur2(buf.data(), buf.size());
    auto r2 = cur2.read_sleb128();
    ASSERT_TRUE(r2.ok());
    ASSERT_EQ(*r2, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LebProperty, testing::Values(1, 2, 3, 4));

// --- RcvArray vs reference ---------------------------------------------------

class RcvArrayProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RcvArrayProperty, MatchesReferenceAccounting) {
  Rng rng(GetParam() * 104729);
  hw::RcvArray arr(64);
  std::map<std::uint32_t, int> reference;  // tid → owner

  for (int step = 0; step < 3000; ++step) {
    const int ctxt = static_cast<int>(rng.next_below(4));
    if (rng.next_double() < 0.5) {
      auto tid = arr.program(ctxt, 0x1000, 4096);
      if (reference.size() == 64) {
        ASSERT_FALSE(tid.ok());
      } else {
        ASSERT_TRUE(tid.ok());
        ASSERT_EQ(reference.count(*tid), 0u);
        reference[*tid] = ctxt;
      }
    } else if (!reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.next_below(reference.size())));
      const bool right_owner = rng.next_double() < 0.8;
      const int who = right_owner ? it->second : (it->second + 1) % 4;
      const Status s = arr.unprogram(who, it->first);
      ASSERT_EQ(s.ok(), who == it->second);
      if (s.ok()) reference.erase(it);
    }
    ASSERT_EQ(arr.in_use(), reference.size());
  }
  // unprogram_all per context drains exactly that context's entries.
  for (int ctxt = 0; ctxt < 4; ++ctxt) {
    std::size_t expected = 0;
    for (const auto& [tid, owner] : reference)
      if (owner == ctxt) ++expected;
    EXPECT_EQ(arr.unprogram_all(ctxt), expected);
  }
  EXPECT_EQ(arr.in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcvArrayProperty, testing::Values(7, 11, 13));

// --- RcvArray vs a dense oracle ----------------------------------------------
//
// The sparse RcvArray (occupancy bitmap + live-entry map) must be
// indistinguishable from the dense one-slot-per-TID table it replaced:
// same next-fit TIDs, same errors, same in_use() and entry() contents.
// The oracle below is that dense table. Seeded: PD_PROPERTY_SEED overrides
// the default and a failure prints the reproducer.

std::uint64_t rcv_oracle_seed() {
  if (const char* env = std::getenv("PD_PROPERTY_SEED"); env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 0);
  return 0x7D1Dull;
}

class DenseRcvArray {
 public:
  explicit DenseRcvArray(std::uint32_t n) : entries_(n) {}

  Result<std::uint32_t> program(int ctxt, mem::PhysAddr pa, std::uint64_t len) {
    if (len == 0 || len > std::numeric_limits<std::uint32_t>::max()) return Errno::einval;
    if (ctxt < 0 || ctxt > std::numeric_limits<std::int16_t>::max()) return Errno::einval;
    const auto n = static_cast<std::uint32_t>(entries_.size());
    if (in_use_ == n) return Errno::enospc;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t tid = (next_hint_ + i) % n;
      if (entries_[tid].valid) continue;
      entries_[tid] = hw::TidEntry{pa, static_cast<std::uint32_t>(len),
                                   static_cast<std::int16_t>(ctxt), true};
      next_hint_ = (tid + 1) % n;
      ++in_use_;
      return tid;
    }
    return Errno::enospc;
  }
  Status unprogram(int ctxt, std::uint32_t tid) {
    if (tid >= entries_.size()) return Errno::einval;
    hw::TidEntry& e = entries_[tid];
    if (!e.valid || e.owner_ctxt != ctxt) return Errno::einval;
    e = hw::TidEntry{};
    --in_use_;
    return Status::success();
  }
  std::size_t unprogram_all(int ctxt) {
    std::size_t freed = 0;
    for (auto& e : entries_)
      if (e.valid && e.owner_ctxt == ctxt) {
        e = hw::TidEntry{};
        --in_use_;
        ++freed;
      }
    return freed;
  }
  const hw::TidEntry* entry(std::uint32_t tid) const {
    return tid < entries_.size() && entries_[tid].valid ? &entries_[tid] : nullptr;
  }
  std::uint32_t in_use() const { return in_use_; }

 private:
  std::vector<hw::TidEntry> entries_;
  std::uint32_t in_use_ = 0;
  std::uint32_t next_hint_ = 0;
};

void expect_same_entry(const hw::RcvArray& arr, const DenseRcvArray& ref, std::uint32_t tid) {
  const hw::TidEntry* a = arr.entry(tid);
  const hw::TidEntry* b = ref.entry(tid);
  ASSERT_EQ(a == nullptr, b == nullptr) << "tid " << tid;
  if (a == nullptr) return;
  EXPECT_EQ(a->pa, b->pa) << "tid " << tid;
  EXPECT_EQ(a->len, b->len) << "tid " << tid;
  EXPECT_EQ(a->owner_ctxt, b->owner_ctxt) << "tid " << tid;
  EXPECT_TRUE(a->valid) << "tid " << tid;
}

void run_rcv_oracle(std::uint64_t seed, std::uint32_t capacity) {
  SCOPED_TRACE(testing::Message() << "reproduce with PD_PROPERTY_SEED=" << seed
                                  << " (capacity " << capacity << ")");
  Rng rng(seed ^ (std::uint64_t{capacity} * 0x9E3779B97F4A7C15ull));
  hw::RcvArray arr(capacity);
  DenseRcvArray ref(capacity);
  std::vector<std::uint32_t> live;  // tids the oracle holds, any order
  // Phases alternate between filling (wrap-around, full array) and
  // draining, so next-fit runs over both dense and sparse occupancy.
  for (int step = 0; step < 6000; ++step) {
    const bool filling = (step / 500) % 2 == 0;
    const double r = rng.next_double();
    const int ctxt = static_cast<int>(rng.next_below(6));
    if (r < (filling ? 0.70 : 0.30)) {
      // Mostly valid requests; some carry a bad context or length.
      int c = ctxt;
      std::uint64_t len = 4096 * (1 + rng.next_below(64));
      switch (rng.next_below(20)) {
        case 0: c = -1 - static_cast<int>(rng.next_below(3)); break;
        case 1: c = 32768 + static_cast<int>(rng.next_below(100)); break;
        case 2: len = 0; break;
        case 3: len = std::uint64_t{1} << 32; break;
        default: break;
      }
      const mem::PhysAddr pa = 0x1000 * (1 + rng.next_below(1 << 20));
      auto got = arr.program(c, pa, len);
      auto want = ref.program(c, pa, len);
      ASSERT_EQ(got.ok(), want.ok()) << "step " << step;
      if (want.ok()) {
        ASSERT_EQ(*got, *want) << "next-fit diverged at step " << step;
        live.push_back(*want);
      } else {
        ASSERT_EQ(got.error(), want.error()) << "step " << step;
      }
    } else if (r < 0.97) {
      // Unprogram a live TID (right or wrong owner) or a random index,
      // including ones past the capacity.
      std::uint32_t tid;
      int who = ctxt;
      std::size_t pick = 0;
      const bool from_live = !live.empty() && rng.next_double() < 0.85;
      if (from_live) {
        pick = rng.next_below(live.size());
        tid = live[pick];
        if (rng.next_double() < 0.8) who = ref.entry(tid)->owner_ctxt;
      } else {
        tid = static_cast<std::uint32_t>(rng.next_below(std::uint64_t{capacity} + 8));
      }
      const Status got = arr.unprogram(who, tid);
      const Status want = ref.unprogram(who, tid);
      ASSERT_EQ(got.ok(), want.ok()) << "step " << step << " tid " << tid;
      if (!want.ok()) {
        ASSERT_EQ(got.error(), want.error());
      } else {
        auto it = std::find(live.begin(), live.end(), tid);
        *it = live.back();
        live.pop_back();
      }
    } else {
      const int c = rng.next_below(8) == 0 ? -1 : ctxt;
      ASSERT_EQ(arr.unprogram_all(c), ref.unprogram_all(c)) << "step " << step;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](std::uint32_t t) { return ref.entry(t) == nullptr; }),
                 live.end());
    }
    ASSERT_EQ(arr.in_use(), ref.in_use()) << "step " << step;
    expect_same_entry(arr, ref, static_cast<std::uint32_t>(rng.next_below(capacity + 2)));
    if (step % 250 == 0)
      for (std::uint32_t t = 0; t < capacity + 2; ++t) expect_same_entry(arr, ref, t);
    if (testing::Test::HasFatalFailure() || testing::Test::HasNonfatalFailure()) return;
  }
}

TEST(RcvArrayOracle, SparseMatchesDenseTable) {
  const std::uint64_t seed = rcv_oracle_seed();
  std::printf("rcv array oracle: PD_PROPERTY_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  // Capacities straddle bitmap-word boundaries (63/64/65), a single entry,
  // and a share large enough that the array rarely fills.
  for (std::uint32_t capacity : {1u, 7u, 63u, 64u, 65u, 200u, 1000u}) {
    run_rcv_oracle(seed, capacity);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace pd
