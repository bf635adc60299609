// One repetition of one benchmark workload through the real call path:
// mpirt::Cluster -> mpirt::MpiWorld::run -> apps::{umt,qbox}_rank, single
// process, single-threaded engine (host_workers = 0).
//
// The process times the one cold cluster and world construction it runs
// (with `--setup-only 1` it stops there, so the caller can take many cold
// set-up samples cheaply). Every layer is read from outside through public
// getters after the run. Output is one JSON object on stdout:
//   host    — host-clock measurements (never part of the digest);
//   sim     — simulated outputs, per layer (all deterministic);
//   digest  — FNV-1a over every `sim` value, so a change that only speeds
//             up the simulator must leave it bit-identical;
//   attempted / failed / errors — operation accounting and output checks.
//
// Usage:
//   perfbench_sim --app umt|qbox --mode linux|mckernel|mckernel_hfi
//                 --noise-seed S [--setup-only 0|1] [--<param> V]...
// UMT params: --angle-bytes --compute-ns
// QBOX params: --bcast-bytes --alltoallv-bytes --scratch-bytes --compute-ns
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/proxies.hpp"
#include "src/common/stats.hpp"
#include "src/mpirt/cluster.hpp"
#include "src/mpirt/world.hpp"
#include "src/os/ihk.hpp"
#include "src/os/kernel.hpp"
#include "src/os/mckernel.hpp"

#ifdef PERFBENCH_COUNT_ALLOCS
#include <atomic>
#include <new>

// Traced build only: count every host heap allocation, so the timed build
// carries no counting cost.
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

static std::uint64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
#else
static std::uint64_t heap_allocs() { return 0; }
#endif

namespace {

using namespace pd;
using Clock = std::chrono::steady_clock;

// Every workload runs 32 nodes at the proxy's ranks per node.
constexpr int kNodes = 32;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench_sim: %s\n", msg);
  std::exit(2);
}

struct Args {
  std::string app;
  os::OsMode mode = os::OsMode::linux;
  std::uint64_t noise_seed = 0;
  bool setup_only = false;
  std::map<std::string, std::uint64_t> params;

  std::uint64_t param(const char* name) const {
    auto it = params.find(name);
    if (it == params.end()) usage((std::string("missing --") + name).c_str());
    return it->second;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) usage("expected --name value pairs");
    const std::string key = argv[i] + 2;
    const std::string val = argv[++i];
    if (key == "app") {
      a.app = val;
    } else if (key == "mode") {
      if (val == "linux") a.mode = os::OsMode::linux;
      else if (val == "mckernel") a.mode = os::OsMode::mckernel;
      else if (val == "mckernel_hfi") a.mode = os::OsMode::mckernel_hfi;
      else usage("unknown --mode");
    } else {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage(("bad number for --" + key).c_str());
      if (key == "noise-seed") a.noise_seed = v;
      else if (key == "setup-only") a.setup_only = v != 0;
      else a.params[key] = v;
    }
  }
  if (a.app != "umt" && a.app != "qbox") usage("--app must be umt or qbox");
  return a;
}

/// The workload's rank program, from the generated parameters only.
struct Program {
  int ranks_per_node = 0;
  std::uint64_t buf_bytes = 0;
  std::function<sim::Task<>(mpirt::Rank&)> body;
};

Program make_program(const Args& a) {
  if (a.app == "umt") {
    apps::UmtParams p;
    p.angle_bytes = a.param("angle-bytes");
    p.compute_per_group = from_ns(static_cast<double>(a.param("compute-ns")));
    // Same rank layout and comm buffer as the Figure 6a bench.
    return {apps::kUmtRpn, 1ull << 20, [p](mpirt::Rank& r) { return apps::umt_rank(r, p); }};
  }
  apps::QboxParams p;
  p.bcast_bytes = a.param("bcast-bytes");
  p.alltoallv_bytes = a.param("alltoallv-bytes");
  p.scratch_bytes = a.param("scratch-bytes");
  p.compute_per_iter = from_ns(static_cast<double>(a.param("compute-ns")));
  // Same rank layout and comm buffer as the Figure 7 bench.
  return {apps::kQboxRpn, 4ull << 20, [p](mpirt::Rank& r) { return apps::qbox_rank(r, p); }};
}

/// Ordered name -> value list; the order is the digest order.
class Metrics {
 public:
  void add(std::string name, double v) { items_.emplace_back(std::move(name), v); }
  const std::vector<std::pair<std::string, double>>& items() const { return items_; }

  std::string digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    char buf[64];
    for (const auto& [name, v] : items_) {
      for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      const int n = std::snprintf(buf, sizeof buf, "=%.17g;", v);
      for (int i = 0; i < n; ++i) h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ull;
    }
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

double mean_us(const os::SyscallProfiler& p, const char* call) {
  const std::uint64_t n = p.count_of(call);
  return n == 0 ? 0.0 : p.total_us_of(call) / static_cast<double>(n);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Program prog = make_program(args);

  mpirt::ClusterOptions copts;
  copts.nodes = kNodes;
  copts.mode = args.mode;
  copts.cfg.noise_seed = args.noise_seed;
  // Node memory as the application-figure benches size it.
  copts.mcdram_bytes = 1ull << 30;
  copts.ddr_bytes = 2ull << 30;
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = prog.ranks_per_node;
  wopts.buf_bytes = prog.buf_bytes;

  auto t0 = Clock::now();
  auto cluster = std::make_unique<mpirt::Cluster>(copts);
  const double setup_cluster_s = seconds_since(t0);
  t0 = Clock::now();
  auto world = std::make_unique<mpirt::MpiWorld>(*cluster, wopts);
  const double setup_world_s = seconds_since(t0);
  if (args.setup_only) {
    std::printf("{\"host\": {\"setup_cluster_s\": %.9f, \"setup_world_s\": %.9f}}\n",
                setup_cluster_s, setup_world_s);
    return 0;
  }

  sim::Engine& engine = cluster->engine();
  const std::int64_t live_before = engine.live_tasks();
  const std::uint64_t allocs0 = heap_allocs();
  const auto t_run = Clock::now();
  world->run(prog.body);
  const double run_s = seconds_since(t_run);
  const std::uint64_t run_allocs = heap_allocs() - allocs0;
  const std::int64_t live_after = engine.live_tasks();
  // Peak RSS of the set-up plus run.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // --- read every layer from outside ---------------------------------------
  const os::SyscallProfiler app = cluster->app_kernel_profile();
  os::SyscallProfiler all;
  std::uint64_t offloads = 0, rx = 0, dropped = 0, descriptors = 0, descriptor_bytes = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0, range_inval = 0, fallbacks = 0;
  std::uint64_t slab_reuses = 0, far_allocs = 0, partition_exhausted = 0;
  std::uint64_t hfi_writevs = 0, hfi_sdma_requests = 0;
  Samples queueing;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    auto& node = cluster->node(n);
    all.merge(node.linux_kernel->profiler());
    const auto& lk = node.linux_kernel->kheap().stats();
    slab_reuses += lk.slab_reuses;
    far_allocs += lk.far_allocs;
    partition_exhausted += lk.partition_exhausted;
    if (node.mck) {
      all.merge(node.mck->profiler());
      const auto& mk = node.mck->kheap().stats();
      slab_reuses += mk.slab_reuses;
      far_allocs += mk.far_allocs;
      partition_exhausted += mk.partition_exhausted;
    }
    if (node.ihk) {
      offloads += node.ihk->offload_count();
      queueing.merge(node.ihk->queueing_samples());
    }
    if (node.pico) {
      cache_hits += node.pico->extent_cache_hits();
      cache_lookups += node.pico->extent_cache_hits() + node.pico->extent_cache_misses() +
                       node.pico->extent_cache_range_invalidations() +
                       node.pico->extent_cache_generation_overflows();
      range_inval += node.pico->extent_cache_range_invalidations();
      fallbacks += node.pico->fallbacks();
    }
    rx += node.device->rx_messages();
    dropped += node.device->dropped_messages();
    descriptors += node.device->total_descriptors();
    descriptor_bytes += node.device->total_descriptor_bytes();
    hfi_writevs += node.driver->writev_calls();
    hfi_sdma_requests += node.driver->sdma_requests();
  }
  const auto queue = ikc::summarize_queueing(queueing);
  const mpirt::MpiStatsTable mpi = world->stats_table();
  std::uint64_t mpi_calls = 0, psm_pio = 0, psm_eager = 0, psm_expected = 0;
  double wait_ms = 0, collective_ms = 0;
  for (const auto& row : mpi.rows()) {
    mpi_calls += row.count;
    if (row.call == "Wait" || row.call == "Waitall") wait_ms += row.time_ms;
    if (row.call == "Barrier" || row.call == "Allreduce" || row.call == "Allgather" ||
        row.call == "Bcast" || row.call == "Reduce" || row.call == "Alltoall" ||
        row.call == "Alltoallv" || row.call == "Scan")
      collective_ms += row.time_ms;
  }
  for (int r = 0; r < world->size(); ++r) {
    psm_pio += world->rank(r).endpoint().pio_sends();
    psm_eager += world->rank(r).endpoint().eager_sends();
    psm_expected += world->rank(r).endpoint().expected_sends();
  }
  std::uint64_t syscalls = 0;
  for (const auto& row : app.rows()) syscalls += row.count;
  const std::uint64_t wakeups =
      all.counter("ikc.direct.proxy_wakeup") + all.counter("ikc.direct.reply_wakeup") +
      all.counter("ikc.ring.doorbell") + all.counter("ikc.reply.wakeup");
  const std::uint64_t timeouts = all.counter("ikc.ring.timeout");
  const std::uint64_t events = engine.events_processed();

  Metrics sim;
  sim.add("sim_solve_s", to_sec(world->max_solve()));
  sim.add("sim.events", static_cast<double>(events));
  sim.add("os.syscalls", static_cast<double>(syscalls));
  sim.add("os.kernel_ms", to_ms(app.total_kernel_time()));
  sim.add("os.writev_us", mean_us(app, "writev"));
  sim.add("os.ioctl_us", mean_us(app, "ioctl"));
  sim.add("os.munmap_ms", app.total_us_of("munmap") / 1e3);
  // The counter is named *_ns but accumulates Dur (picoseconds).
  sim.add("os.noise_ms", to_ms(static_cast<Dur>(app.counter("os.noise.time_ns"))));
  sim.add("hfi.writev_calls", static_cast<double>(hfi_writevs));
  sim.add("hfi.sdma_requests", static_cast<double>(hfi_sdma_requests));
  sim.add("mem.kheap_slab_reuse", static_cast<double>(slab_reuses));
  sim.add("mem.kheap_far_allocs", static_cast<double>(far_allocs));
  sim.add("ikc.offloads", static_cast<double>(offloads));
  sim.add("ikc.queue_p50_us", queue.p50_us);
  sim.add("ikc.queue_p95_us", queue.p95_us);
  sim.add("ikc.wakeups_per_offload", ratio(static_cast<double>(wakeups), static_cast<double>(offloads)));
  sim.add("ikc.timeouts", static_cast<double>(timeouts));
  sim.add("pico.extent_cache_hits", static_cast<double>(cache_hits));
  sim.add("pico.extent_cache_lookups", static_cast<double>(cache_lookups));
  sim.add("pico.extent_cache_hit_ratio",
          ratio(static_cast<double>(cache_hits), static_cast<double>(cache_lookups)));
  sim.add("pico.range_invalidations", static_cast<double>(range_inval));
  sim.add("pico.fallbacks", static_cast<double>(fallbacks));
  sim.add("hw.sdma_descriptors", static_cast<double>(descriptors));
  sim.add("hw.bytes_per_descriptor",
          ratio(static_cast<double>(descriptor_bytes), static_cast<double>(descriptors)));
  sim.add("hw.fabric_bytes", static_cast<double>(cluster->fabric().bytes_sent()));
  sim.add("hw.fabric_chunks", static_cast<double>(cluster->fabric().chunks_sent()));
  sim.add("hw.rx_messages", static_cast<double>(rx));
  sim.add("hw.dropped", static_cast<double>(dropped));
  sim.add("psm.pio_sends", static_cast<double>(psm_pio));
  sim.add("psm.eager_sends", static_cast<double>(psm_eager));
  sim.add("psm.expected_sends", static_cast<double>(psm_expected));
  sim.add("mpirt.calls", static_cast<double>(mpi_calls));
  sim.add("mpirt.wait_ms", wait_ms);
  sim.add("mpirt.collective_ms", collective_ms);
  sim.add("mpirt.mpi_share", ratio(mpi.total_mpi_ms(), mpi.total_runtime_ms()));
  sim.add("apps.sim_total_s", to_sec(world->max_runtime()));

  // --- output checks and operation accounting ------------------------------
  std::vector<std::string> errors;
  const std::int64_t live_ranks = live_after - live_before;
  if (live_ranks != 0)
    errors.push_back(std::to_string(live_ranks) + " tasks still live after the engine drained");
  if (dropped != 0) errors.push_back(std::to_string(dropped) + " messages dropped by a device");
  // Every PSM send reaches a receiver as at least one wire message, and
  // every wire message is at least one fabric chunk.
  const std::uint64_t psm_sends = psm_pio + psm_eager + psm_expected;
  if (rx + dropped > cluster->fabric().chunks_sent())
    errors.push_back("devices received more messages than the fabric sent chunks");
  if (rx < psm_sends) errors.push_back("fewer messages received than PSM sent");
  if (psm_sends == 0 || cluster->fabric().bytes_sent() == 0)
    errors.push_back("no inter-node traffic");
  const std::uint64_t attempted = mpi_calls + syscalls + offloads;
  const std::uint64_t failed = static_cast<std::uint64_t>(live_ranks > 0 ? live_ranks : 0) +
                               dropped + timeouts + all.counter("ikc.ring.degraded") +
                               partition_exhausted;

  std::printf("{\"host\": {\"run_s\": %.9f, \"peak_rss_mb\": %.3f, \"run_allocs\": %llu, "
              "\"setup_cluster_s\": %.9f, \"setup_world_s\": %.9f}, \"sim\": {",
              run_s, static_cast<double>(ru.ru_maxrss) / 1024.0,
              static_cast<unsigned long long>(run_allocs), setup_cluster_s, setup_world_s);
  for (std::size_t i = 0; i < sim.items().size(); ++i)
    std::printf("%s\"%s\": %.17g", i ? ", " : "", sim.items()[i].first.c_str(),
                sim.items()[i].second);
  std::printf("}, \"digest\": \"%s\", \"attempted\": %llu, \"failed\": %llu, \"errors\": [",
              sim.digest().c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < errors.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", errors[i].c_str());
  std::printf("]}\n");
  return 0;
}
