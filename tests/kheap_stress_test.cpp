// Cross-kernel kheap stress: Linux-side frees hammering the remote-free
// queues while the owning LWK cores keep allocating (paper §3.3).
//
// The scenario under test is the SDMA completion path: the device IRQ runs
// on a Linux CPU and kfree()s LWK-owned completion metadata, while the
// owner cores allocate the next batch and drain their queues on the
// scheduler tick. The randomized interleaving below checks that the
// per-core magazines, remote queues, and the Stats ledger stay mutually
// consistent through tens of thousands of such races, and that every block
// keeps its bytes intact while live (blocks carry real host memory, so an
// aliasing or early-recycle bug shows up as a stomped pattern — and as an
// ASan report in PD_SANITIZE builds, which run this under the `sanitize`
// ctest label).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/kheap.hpp"

namespace pd::mem {
namespace {

constexpr int kOwnerCpus[] = {8, 9, 10, 11};
constexpr int kLinuxCpus[] = {0, 1, 2};
constexpr int kOps = 40'000;

struct LiveBlock {
  PhysAddr addr = 0;
  std::uint64_t size = 0;
  int owner_cpu = -1;
};

std::uint8_t pattern_for(PhysAddr addr, std::uint64_t size) {
  return static_cast<std::uint8_t>((addr >> 6) ^ size ^ 0x5A);
}

void fill_block(KernelHeap& heap, const LiveBlock& b) {
  auto span = heap.data(b.addr);
  ASSERT_EQ(span.size(), b.size);
  const std::uint8_t p = pattern_for(b.addr, b.size);
  for (auto& byte : span) byte = p;
}

void check_block(KernelHeap& heap, const LiveBlock& b) {
  auto span = heap.data(b.addr);
  ASSERT_EQ(span.size(), b.size);
  const std::uint8_t p = pattern_for(b.addr, b.size);
  for (std::size_t i = 0; i < span.size(); ++i) {
    ASSERT_EQ(span[i], p) << "block " << std::hex << b.addr << " byte " << std::dec << i
                          << " stomped while live";
  }
}

class KheapCrossKernelStress : public testing::Test {
 protected:
  KernelHeap heap{{kOwnerCpus[0], kOwnerCpus[1], kOwnerCpus[2], kOwnerCpus[3]},
                  ForeignFreePolicy::remote_queue};
  Rng rng{0xD1CEB00Cull};
  std::vector<LiveBlock> tracked;            // live, not yet freed by anyone
  std::vector<LiveBlock> queued;             // foreign-freed, awaiting drain
  std::uint64_t queued_bytes = 0;
  std::uint64_t tracked_bytes = 0;
  std::uint64_t double_free_attempts = 0;

  int random_owner() { return kOwnerCpus[rng.next_below(std::size(kOwnerCpus))]; }
  int random_linux() { return kLinuxCpus[rng.next_below(std::size(kLinuxCpus))]; }

  std::uint64_t random_size() {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 50) return 192;                       // SDMA completion metadata
    if (dice < 85) return 1 + rng.next_below(4096);  // within the size classes
    return 4097 + rng.next_below(16ull * 1024);      // oversized → host-heap path
  }

  void do_alloc() {
    const int cpu = random_owner();
    const std::uint64_t size = random_size();
    auto addr = heap.kmalloc(size, cpu);
    ASSERT_TRUE(addr.ok());
    LiveBlock b{*addr, size, cpu};
    fill_block(heap, b);
    tracked.push_back(b);
    tracked_bytes += size;
  }

  void do_free(bool foreign) {
    if (tracked.empty()) return;
    const std::size_t pick = rng.next_below(tracked.size());
    LiveBlock b = tracked[pick];
    tracked[pick] = tracked.back();
    tracked.pop_back();
    tracked_bytes -= b.size;
    check_block(heap, b);  // bytes must be intact right up to the free
    if (foreign) {
      ASSERT_TRUE(heap.kfree(b.addr, random_linux()).ok());
      queued.push_back(b);
      queued_bytes += b.size;
    } else {
      ASSERT_TRUE(heap.kfree(b.addr, b.owner_cpu).ok());
    }
  }

  // A duplicate completion IRQ (or a confused owner) frees a block that is
  // already sitting on the remote-free queue. Must be rejected without
  // touching the queue, and the queued block must expose no writable span.
  void do_double_free() {
    if (queued.empty()) return;
    const LiveBlock& b = queued[rng.next_below(queued.size())];
    const int cpu = rng.next_below(2) == 0 ? random_linux() : b.owner_cpu;
    ASSERT_EQ(heap.kfree(b.addr, cpu).error(), Errno::einval);
    ASSERT_TRUE(heap.data(b.addr).empty());
    ++double_free_attempts;
  }

  void do_drain() {
    const int cpu = random_owner();
    std::size_t expected = 0;
    for (const LiveBlock& b : queued)
      if (b.owner_cpu == cpu) ++expected;
    EXPECT_EQ(heap.remote_queue_depth(cpu), expected);
    EXPECT_EQ(heap.remote_queued(), queued.size());
    EXPECT_EQ(heap.drain_remote_frees(cpu), expected);
    EXPECT_EQ(heap.remote_queue_depth(cpu), 0u);
    EXPECT_EQ(heap.remote_queued(), queued.size() - expected);
    for (std::size_t i = 0; i < queued.size();) {
      if (queued[i].owner_cpu == cpu) {
        queued_bytes -= queued[i].size;
        queued[i] = queued.back();
        queued.pop_back();
      } else {
        ++i;
      }
    }
  }

  void check_invariants() {
    const KernelHeap::Stats& s = heap.stats();
    // Every allocation is either a magazine pop or a host allocation.
    ASSERT_EQ(s.allocs, s.slab_reuses + s.host_allocs);
    // Queued-but-undrained blocks are still live: the owner has not
    // reclaimed them, and their bytes must not be reused yet.
    ASSERT_EQ(heap.live_blocks(), tracked.size() + queued.size());
    ASSERT_EQ(s.bytes_live, tracked_bytes + queued_bytes);
    // Magazines hold exactly the recycled-but-not-reused population.
    std::size_t magazines = 0;
    for (int cpu : kOwnerCpus) magazines += heap.magazine_depth(cpu);
    ASSERT_EQ(magazines, s.slab_recycles - s.slab_reuses);
    ASSERT_EQ(s.rejected_frees, 0u);
    // Every caught double free is ours; none slipped through as a real free.
    ASSERT_EQ(s.double_frees, double_free_attempts);
  }
};

TEST_F(KheapCrossKernelStress, RandomizedInterleavingKeepsLedgerConsistent) {
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 35) {
      do_alloc();
    } else if (dice < 55) {
      do_free(/*foreign=*/true);  // Linux-side completion IRQ
    } else if (dice < 68) {
      do_free(/*foreign=*/false);  // owner-core free
    } else if (dice < 73) {
      do_double_free();  // duplicate completion IRQ
    } else if (dice < 86) {
      do_drain();  // scheduler tick on one owner core
    } else {
      check_invariants();
    }
    if (HasFatalFailure()) return;
  }

  // Tear down: owner cores free what is still tracked, every queue drains.
  while (!tracked.empty()) do_free(/*foreign=*/false);
  for (int cpu : kOwnerCpus) {
    heap.drain_remote_frees(cpu);
    EXPECT_EQ(heap.remote_queue_depth(cpu), 0u);
  }
  queued.clear();
  queued_bytes = 0;

  check_invariants();
  EXPECT_EQ(heap.live_blocks(), 0u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
  EXPECT_GT(heap.stats().remote_frees, 1000u) << "stress barely exercised the remote path";
  EXPECT_GT(heap.stats().slab_reuses, 1000u) << "stress barely exercised magazine reuse";
}

// The tightest race the design must survive: foreign free → owner drains →
// owner immediately reallocates the same class. The recycled block must
// come back zeroed, hold a fresh pattern, and the reuse must be a magazine
// pop (no host allocation) — the steady state the fast path depends on.
TEST_F(KheapCrossKernelStress, DrainThenAllocReusesBlockWithoutHostAlloc) {
  for (int round = 0; round < 5'000; ++round) {
    const int cpu = random_owner();
    auto addr = heap.kmalloc(192, cpu);
    ASSERT_TRUE(addr.ok());
    LiveBlock b{*addr, 192, cpu};
    fill_block(heap, b);
    check_block(heap, b);
    ASSERT_TRUE(heap.kfree(b.addr, random_linux()).ok());  // IRQ on Linux CPU
    ASSERT_EQ(heap.remote_queue_depth(cpu), 1u);
    ASSERT_EQ(heap.drain_remote_frees(cpu), 1u);

    auto again = heap.kmalloc(192, cpu);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(*again, b.addr) << "drain round " << round << ": magazine should hand the "
                              << "just-recycled block straight back";
    auto span = heap.data(*again);
    ASSERT_EQ(span.size(), 192u);
    for (std::size_t i = 0; i < span.size(); ++i)
      ASSERT_EQ(span[i], 0u) << "recycled block not scrubbed at byte " << i;
    ASSERT_TRUE(heap.kfree(*again, cpu).ok());
  }
  const KernelHeap::Stats& s = heap.stats();
  EXPECT_EQ(s.allocs, 10'000u);
  EXPECT_EQ(s.host_allocs, std::size(kOwnerCpus));  // one cold block per core at most
  EXPECT_EQ(s.slab_reuses, s.allocs - s.host_allocs);
  EXPECT_EQ(s.remote_frees, 5'000u);
  EXPECT_EQ(s.rejected_frees, 0u);
  EXPECT_EQ(heap.live_blocks(), 0u);
  EXPECT_EQ(s.bytes_live, 0u);
}

// Regression: a second kfree() of a block already parked on the remote-free
// queue used to succeed — the block was enqueued twice, remote_frees
// double-counted, and the eventual drain recycled the same address into two
// magazine slots. The state machine must catch it from any CPU.
TEST_F(KheapCrossKernelStress, FreeWhileQueuedIsACaughtDoubleFree) {
  auto addr = heap.kmalloc(192, kOwnerCpus[0]);
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(heap.kfree(*addr, kLinuxCpus[0]).ok());  // completion IRQ enqueues
  ASSERT_EQ(heap.stats().remote_frees, 1u);

  // Duplicate IRQ on another Linux CPU: rejected, not enqueued again.
  EXPECT_EQ(heap.kfree(*addr, kLinuxCpus[1]).error(), Errno::einval);
  // Owner-side free of the queued block is the same double free.
  EXPECT_EQ(heap.kfree(*addr, kOwnerCpus[0]).error(), Errno::einval);
  EXPECT_EQ(heap.stats().remote_frees, 1u) << "double free inflated remote_frees";
  EXPECT_EQ(heap.stats().double_frees, 2u);
  EXPECT_EQ(heap.remote_queue_depth(kOwnerCpus[0]), 1u);

  EXPECT_EQ(heap.drain_remote_frees(kOwnerCpus[0]), 1u);
  // Exactly one copy parked — a doubled enqueue would leave two.
  EXPECT_EQ(heap.magazine_depth(kOwnerCpus[0]), 1u);
  EXPECT_EQ(heap.live_blocks(), 0u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
  // Parked is still not live: freeing it yet again stays a double free.
  EXPECT_EQ(heap.kfree(*addr, kOwnerCpus[0]).error(), Errno::einval);
  EXPECT_EQ(heap.stats().double_frees, 3u);
}

// Regression: data() used to hand out a writable span for a block on the
// remote-free queue — conceptually freed memory the IRQ side could still
// scribble on while the owner raced to drain and reallocate it.
TEST_F(KheapCrossKernelStress, QueuedBlockExposesNoWritableSpan) {
  auto addr = heap.kmalloc(192, kOwnerCpus[1]);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(heap.data(*addr).size(), 192u);
  ASSERT_TRUE(heap.kfree(*addr, kLinuxCpus[0]).ok());
  EXPECT_TRUE(heap.data(*addr).empty()) << "queued block leaked a span";
  ASSERT_EQ(heap.drain_remote_frees(kOwnerCpus[1]), 1u);
  EXPECT_TRUE(heap.data(*addr).empty()) << "parked block leaked a span";
  // Reallocation of the class revives the same block with a fresh span.
  auto again = heap.kmalloc(192, kOwnerCpus[1]);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(*again, *addr);
  EXPECT_EQ(heap.data(*again).size(), 192u);
}

}  // namespace
}  // namespace pd::mem
