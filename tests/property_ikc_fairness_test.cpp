// Weighted-fair drain properties, checked against an oracle derived from
// the scripted stream itself.
//
// The fair drain decides *which ring head* a service loop claims next
// (per-job virtual time, then class, then age) but must not change *what*
// the transport does. For a seeded multi-tenant stream:
//
//   (a) every op returns its scripted payload, or EIO where the script
//       fails it;
//   (b) every op executes exactly once, and each job completes exactly its
//       scripted (rank, op) set;
//   (c) within one (channel, priority) ring, execution order equals
//       submission order — the FIFO contract real IKC rings give the LWK;
//   (d) for a single tenant funneled onto one ring, control claims before
//       bulk: the (vtime, class, age) key collapses to class-then-FIFO, so
//       no bulk op may run ahead of a control op submitted before it.
//
// A further property pins the weighted share itself: two saturating
// tenants with weights 2:1 on one service loop must complete claims ~2:1.
//
// Determinism: fixed default seed, overridable with PD_PROPERTY_SEED; a
// failure prints the seed. Run with `ctest -L qos` (also `property`, `ikc`).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/ikc/transport.hpp"
#include "src/os/kernel.hpp"

namespace pd::ikc {
namespace {

std::uint64_t harness_seed() {
  if (const char* env = std::getenv("PD_PROPERTY_SEED"); env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 0);
  return 0xFA137EA5ull;
}

constexpr int kJobs = 6;
constexpr int kRanksPerJob = 2;
constexpr int kOpsPerRank = 25;

struct Op {
  Priority prio = Priority::bulk;
  Dur work = 0;
  Dur gap = 0;
  long payload = 0;
  bool fail = false;
};

struct ExecutionRecord {
  int job;
  int rank;  // global rank id (also the channel hint)
  int op_index;
  Priority prio;
};

struct RunResult {
  // results[rank][op] — what the submitter got back.
  std::vector<std::vector<long>> results;
  std::vector<std::vector<Errno>> errors;
  std::vector<std::vector<Time>> submitted;  // [rank][op]: offload() called
  std::vector<ExecutionRecord> executed;  // service-side, in execution order
  std::vector<std::uint64_t> completed_per_job;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded = 0;
};

sim::Task<> drive_rank(sim::Engine& engine, IkcTransport& transport,
                       const std::vector<Op>& script, int job, int rank, int channel,
                       RunResult& out) {
  for (int k = 0; k < static_cast<int>(script.size()); ++k) {
    const Op& op = script[static_cast<std::size_t>(k)];
    out.submitted[static_cast<std::size_t>(rank)].push_back(engine.now());
    auto r = co_await transport.offload(
        [&engine, &op, &out, job, rank, k]() -> sim::Task<Result<long>> {
          co_await engine.delay(op.work);
          out.executed.push_back({job, rank, k, op.prio});
          if (op.fail) co_return Errno::eio;
          co_return op.payload;
        },
        op.prio, channel, static_cast<JobId>(job));
    out.results[static_cast<std::size_t>(rank)].push_back(r.ok() ? *r : -1);
    out.errors[static_cast<std::size_t>(rank)].push_back(r.error());
    co_await engine.delay(op.gap);
  }
}

constexpr int kRanks = kJobs * kRanksPerJob;

/// `funnel`: the single-tenant case — every rank is job 0 and submits on
/// channel 0. Otherwise each rank has its own channel and ranks pair up
/// into kJobs tenants.
int job_of(int rank, bool funnel) { return funnel ? 0 : rank / kRanksPerJob; }

/// Drive the scripted stream through the ring transport.
RunResult run_stream(const std::vector<std::vector<Op>>& scripts, bool funnel = false) {
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  Samples queueing;
  IkcTransport transport(engine, cfg, linux_kernel.service_cpus(),
                         linux_kernel.profiler(), queueing, linux_kernel.spinlock_abi());

  RunResult out;
  out.results.resize(kRanks);
  out.errors.resize(kRanks);
  out.submitted.resize(kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    sim::spawn(engine, drive_rank(engine, transport,
                                  scripts[static_cast<std::size_t>(rank)],
                                  job_of(rank, funnel), rank, funnel ? 0 : rank, out));
  }
  engine.run();
  out.timeouts = linux_kernel.profiler().counter("ikc.ring.timeout");
  out.degraded = linux_kernel.profiler().counter("ikc.ring.degraded");
  out.completed_per_job.resize(kJobs, 0);
  for (int j = 0; j < kJobs; ++j)
    if (const auto* s = transport.job_stats(static_cast<JobId>(j)))
      out.completed_per_job[static_cast<std::size_t>(j)] = s->completed;
  return out;
}

std::vector<std::vector<Op>> make_scripts(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Op>> scripts(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    Rng stream = rng.fork();
    for (int k = 0; k < kOpsPerRank; ++k) {
      Op op;
      op.prio = stream.next_below(4) == 0 ? Priority::control : Priority::bulk;
      op.work = from_us(stream.uniform(0.5, 5.0));
      op.gap = from_us(stream.uniform(1.0, 30.0));
      op.payload = static_cast<long>(r) * 1000 + k;
      op.fail = stream.next_below(16) == 0;
      scripts[static_cast<std::size_t>(r)].push_back(op);
    }
  }
  return scripts;
}

/// (a)–(c): what every scripted op must come back with, how often it runs,
/// and in which order each (channel, class) ring serves it.
void expect_matches_script(const std::vector<std::vector<Op>>& scripts, const RunResult& run,
                           bool funnel) {
  // Happy path: a timeout would re-route through the direct fallback and
  // muddy every ordering claim below.
  EXPECT_EQ(run.timeouts, 0u);
  EXPECT_EQ(run.degraded, 0u);

  // (a) The scripted payload or EIO, op by op.
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_EQ(run.results[r].size(), static_cast<std::size_t>(kOpsPerRank));
    for (int k = 0; k < kOpsPerRank; ++k) {
      const Op& op = scripts[r][k];
      EXPECT_EQ(run.results[r][k], op.fail ? -1L : op.payload)
          << "rank " << r << " op " << k << " returned the wrong payload";
      EXPECT_EQ(run.errors[r][k], op.fail ? Errno::eio : Errno::ok)
          << "rank " << r << " op " << k << " returned the wrong errno";
    }
  }

  // (b) Exactly once, and each job completes exactly its own scripted set.
  ASSERT_EQ(run.executed.size(), static_cast<std::size_t>(kRanks * kOpsPerRank));
  std::vector<std::vector<int>> seen(kRanks, std::vector<int>(kOpsPerRank, 0));
  std::set<std::tuple<int, int, int>> executed_set, scripted_set;
  for (const auto& e : run.executed) {
    ++seen[e.rank][e.op_index];
    executed_set.insert({e.job, e.rank, e.op_index});
  }
  for (int r = 0; r < kRanks; ++r)
    for (int k = 0; k < kOpsPerRank; ++k) {
      EXPECT_EQ(seen[r][k], 1) << "rank " << r << " op " << k << " executed " << seen[r][k]
                               << " times";
      scripted_set.insert({job_of(r, funnel), r, k});
    }
  EXPECT_EQ(executed_set, scripted_set);
  // JobStats::completed counts the offloads that returned a result.
  std::vector<std::uint64_t> expected_per_job(kJobs, 0);
  for (int r = 0; r < kRanks; ++r)
    for (const Op& op : scripts[r])
      if (!op.fail) ++expected_per_job[static_cast<std::size_t>(job_of(r, funnel))];
  EXPECT_EQ(run.completed_per_job, expected_per_job);

  // (c) FIFO within one (channel, class): submission time orders two ops
  // of one ring (ties at one instant are left unordered). A rank's ops
  // share a ring with other ranks' only when the stream is funneled.
  for (std::size_t i = 0; i < run.executed.size(); ++i)
    for (std::size_t j = i + 1; j < run.executed.size(); ++j) {
      const auto& early = run.executed[i];
      const auto& late = run.executed[j];
      if (early.prio != late.prio || (!funnel && early.rank != late.rank)) continue;
      EXPECT_FALSE(run.submitted[late.rank][late.op_index] <
                   run.submitted[early.rank][early.op_index])
          << "FIFO violated: rank " << late.rank << " op " << late.op_index
          << " was submitted first but ran after rank " << early.rank << " op "
          << early.op_index << " ("
          << (early.prio == Priority::control ? "control" : "bulk") << ")";
    }
}

/// (d): on one ring with one tenant, no bulk op runs ahead of a control op
/// submitted strictly before it. One service loop owns the ring, so claim
/// order is execution order; the later bulk op was queued (or not yet
/// submitted) when the scan chose, and the earlier control op was queued.
void expect_control_before_bulk(const RunResult& run) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < run.executed.size(); ++i) {
    const auto& bulk = run.executed[i];
    if (bulk.prio != Priority::bulk) continue;
    for (std::size_t j = i + 1; j < run.executed.size(); ++j) {
      const auto& control = run.executed[j];
      if (control.prio != Priority::control) continue;
      ++checked;
      EXPECT_FALSE(run.submitted[control.rank][control.op_index] <
                   run.submitted[bulk.rank][bulk.op_index])
          << "bulk (rank " << bulk.rank << ", op " << bulk.op_index
          << ") claimed ahead of earlier control (rank " << control.rank << ", op "
          << control.op_index << ")";
    }
  }
  EXPECT_GT(checked, 0u) << "the stream never interleaved the two classes";
}

TEST(IkcFairnessProperty, EqualWeightsServeEveryScriptedOpOnce) {
  for (const std::uint64_t seed : {harness_seed(), harness_seed() ^ 0xB2}) {
    SCOPED_TRACE(::testing::Message() << "PD_PROPERTY_SEED=" << seed);
    const auto scripts = make_scripts(seed);
    expect_matches_script(scripts, run_stream(scripts), /*funnel=*/false);
  }
}

TEST(IkcFairnessProperty, SingleTenantClaimsControlBeforeBulk) {
  // One tenant funneled onto one ring: every head carries the same job, so
  // head-only claiming in (vtime, class, age) order collapses to
  // class-then-FIFO.
  const std::uint64_t seed = harness_seed() ^ 0x51;
  SCOPED_TRACE(::testing::Message() << "PD_PROPERTY_SEED=" << seed);
  const auto scripts = make_scripts(seed);
  const RunResult run = run_stream(scripts, /*funnel=*/true);
  expect_matches_script(scripts, run, /*funnel=*/true);
  expect_control_before_bulk(run);
}

// --- weighted share under saturation ---------------------------------------

sim::Task<> saturating_rank(sim::Engine& eng, IkcTransport& transport, JobId job,
                            int channel, const bool& stop) {
  for (int k = 0; !stop; ++k) {
    const auto prio = (k % 4 == 0) ? Priority::control : Priority::bulk;
    auto r = co_await transport.offload(
        [&eng]() -> sim::Task<Result<long>> {
          co_await eng.delay(from_us(2));
          co_return 0L;
        },
        prio, channel, job);
    (void)r;
  }
}

sim::Task<> stop_after(sim::Engine& eng, Dur horizon, bool& stop) {
  co_await eng.delay(horizon);
  stop = true;
}

TEST(IkcFairnessProperty, WeightsSplitOneLoopsCapacityProportionally) {
  // Two tenants, both saturating (8 streams each) one service loop, with
  // drain weights 2:1: the completed-claim ratio must track the weights,
  // not the (equal) offered load. The batch limit must bind for the claim
  // *order* to matter at all — an adaptive batch large enough to claim
  // every queued head each round makes the split demand-bound — so pin a
  // small static batch and keep both tenants' backlogs deeper than it.
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  cfg.linux_service_cpus = 1;  // one loop owns every channel
  cfg.ikc_channels = 2;
  cfg.ikc_job_weights = {2.0, 1.0};
  cfg.ikc_adaptive_batch = false;
  cfg.ikc_batch = 4;
  cfg.ikc_deadline = from_ms(100.0);  // saturation queueing is the point
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  Samples queueing;
  IkcTransport transport(engine, cfg, linux_kernel.service_cpus(),
                         linux_kernel.profiler(), queueing, linux_kernel.spinlock_abi());

  bool stop = false;
  for (int j = 0; j < 2; ++j)
    for (int s = 0; s < 4; ++s)
      sim::spawn(engine,
                 saturating_rank(engine, transport, static_cast<JobId>(j), j, stop));
  sim::spawn(engine, stop_after(engine, from_ms(4.0), stop));
  engine.run();

  const auto* heavy = transport.job_stats(0);
  const auto* light = transport.job_stats(1);
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  ASSERT_GT(light->completed, 50u) << "not saturated enough to measure shares";
  const double ratio = static_cast<double>(heavy->completed) /
                       static_cast<double>(light->completed);
  EXPECT_GT(ratio, 1.6) << "weight-2 tenant got " << heavy->completed
                        << " vs weight-1 tenant " << light->completed;
  EXPECT_LT(ratio, 2.4) << "weight-2 tenant got " << heavy->completed
                        << " vs weight-1 tenant " << light->completed;
}

}  // namespace
}  // namespace pd::ikc
