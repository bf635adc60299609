// The simulated Intel HFI1 Linux driver.
//
// This is the "unmodified driver" of the paper: the same object serves
// native Linux syscalls, offloaded McKernel syscalls, and coexists with the
// PicoDriver fast path — it is never specialized per OS mode. Its SDMA
// submission path deliberately reproduces the Linux driver's behaviour from
// §3.4: buffers are pinned with get_user_pages() and descriptors never
// exceed PAGE_SIZE (4 KiB), even though the hardware takes 10 KiB.
//
// Driver state lives as raw structure images in the Linux kernel heap,
// accessed through the version-dependent layout table (layouts.hpp); the
// shipped module binary (with DWARF debug info) is what the PicoDriver
// binds against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/hfi/layouts.hpp"
#include "src/hfi/uapi.hpp"
#include "src/hw/hfi_device.hpp"
#include "src/mem/address_space.hpp"
#include "src/os/kernel.hpp"
#include "src/os/process.hpp"
#include "src/os/spinlock.hpp"

namespace pd::hfi {

class HfiDriver final : public os::CharDevice {
 public:
  /// Constructs, initializes per-engine state images, and registers the
  /// device with the Linux kernel's VFS.
  HfiDriver(os::LinuxKernel& linux_kernel, hw::HfiDevice& device, const std::string& version);
  ~HfiDriver() override;

  std::string dev_name() const override { return kDeviceName; }

  sim::Task<Result<long>> open(os::OpenFile& f) override;
  sim::Task<Result<long>> writev(os::OpenFile& f, std::span<const os::IoVec> iov) override;
  sim::Task<Result<long>> ioctl(os::OpenFile& f, unsigned long cmd, void* arg) override;
  sim::Task<Result<long>> poll(os::OpenFile& f) override;
  sim::Task<Result<mem::PhysAddr>> mmap(os::OpenFile& f, std::uint64_t len,
                                        std::uint64_t offset) override;
  sim::Task<Result<long>> read(os::OpenFile& f, std::uint64_t len) override;
  sim::Task<Result<long>> lseek(os::OpenFile& f, long offset, int whence) override;
  sim::Task<Result<long>> close(os::OpenFile& f) override;

  /// --- what the PicoDriver needs ----------------------------------------
  os::LinuxKernel& linux_kernel() { return linux_; }
  hw::HfiDevice& device() { return device_; }
  const DriverLayouts& layouts() const { return layouts_; }
  /// The vendor-shipped module binary (DWARF inside).
  const dwarf::ModuleBinary& module_binary() const { return module_; }

  /// Per-engine submission spin-lock — the lock both kernels take (§3.3).
  os::SharedSpinlock& engine_lock(int engine_id) {
    return *engine_locks_.at(static_cast<std::size_t>(engine_id));
  }

  /// Kernel-heap addresses of internal structure images. The PicoDriver
  /// obtains these "pointers" by following driver state — here, via
  /// accessors standing in for pointer chases through unified memory.
  mem::PhysAddr sdma_engine_image(int engine_id) const;
  mem::PhysAddr filedata_image(const os::OpenFile& f) const;
  mem::PhysAddr ctxtdata_image(const os::OpenFile& f) const;

  /// Per-context TID accounting shared with the fast path. The fast path
  /// registers TIDs over LWK memory, which is pinned already; releasing a
  /// TID the Linux path registered drops its get_user_pages() pin.
  Status account_tid(os::OpenFile& f, std::uint32_t tid);
  Status release_tid(os::OpenFile& f, std::uint32_t tid);

  /// Quota reclamation (`Config::hfi_tid_quota_evict`): unprogram and unpin
  /// this context's least-recently-registered TID entry. Strictly per-tenant
  /// — only entries the context itself owns are eligible, so a neighbour at
  /// quota can never push out this context's registrations. Returns the
  /// number of RcvArray accounting units freed (pages on the Linux path,
  /// extents on the pico path), or ENOENT when the context owns nothing.
  Result<std::uint64_t> evict_lru_tid(os::OpenFile& f);

  /// --- instrumentation (drives the §4.3 descriptor-size verification) ----
  std::uint64_t writev_calls() const { return writev_calls_; }
  std::uint64_t sdma_requests() const { return sdma_requests_; }
  std::uint64_t tid_entries_programmed() const { return tid_programs_; }

  /// Simulated text address of the driver's completion callback (inside
  /// the Linux image — always visible to Linux).
  mem::VirtAddr completion_callback_text() const;

 private:
  static constexpr std::uint32_t kNoTid = UINT32_MAX;

  /// One registered TID: the frame it holds pinned (Linux path only) and
  /// its neighbours in the context's registration order.
  struct TidRecord {
    mem::PhysAddr frame = 0;
    bool pinned = false;
    std::uint32_t older = kNoTid;
    std::uint32_t newer = kNoTid;
  };

  struct FileCtx {
    mem::PhysAddr filedata = 0;
    mem::PhysAddr ctxtdata = 0;
    int hw_ctxt = -1;
    // Registered TIDs, linked oldest to newest: the per-tenant LRU
    // eviction order, with O(1) removal of any TID.
    FlatMap32<TidRecord> tids;
    std::uint32_t oldest_tid = kNoTid;
    std::uint32_t newest_tid = kNoTid;
  };

  /// Append `tid` to the context's registration order.
  static void link_tid(FileCtx& ctx, std::uint32_t tid, TidRecord rec);
  /// Forget `tid`; its record (pin included) when it was registered.
  static std::optional<TidRecord> unlink_tid(FileCtx& ctx, std::uint32_t tid);

  FileCtx* fctx(const os::OpenFile& f) const { return static_cast<FileCtx*>(f.driver_ctx); }
  StructImage image(mem::PhysAddr addr, const char* struct_name) const;
  int alloc_cpu() const;  // representative Linux CPU for kheap ownership

  os::LinuxKernel& linux_;
  hw::HfiDevice& device_;
  DriverLayouts layouts_;
  dwarf::ModuleBinary module_;

  std::vector<mem::PhysAddr> engine_images_;
  std::vector<std::unique_ptr<os::SharedSpinlock>> engine_locks_;
  std::uint32_t expected_entries_per_ctxt_;

  std::uint64_t writev_calls_ = 0;
  std::uint64_t sdma_requests_ = 0;
  std::uint64_t tid_programs_ = 0;
};

}  // namespace pd::hfi
