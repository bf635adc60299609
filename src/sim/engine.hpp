// Discrete-event simulation engine — the paper-scale core (DESIGN.md §8.5).
//
// Events are (time, sequence, callback) triples; ties break in insertion
// order so the simulation is deterministic. Simulated entities are written
// as C++20 coroutines (`Task<T>`, see task.hpp) that `co_await` delays and
// synchronization primitives; the engine resumes them from the event loop.
//
// Three mechanisms keep 256-node sweeps tractable:
//
//   * Calendar queue. Each shard keeps one "year" of buckets — sorted
//     intrusive lists covering [base, base + nbuckets*width) — plus a
//     min-heap for far-future overflow events. Enqueue/dequeue are O(1)
//     amortized; the queue rebuilds (resizing buckets and re-deriving the
//     bucket width from observed event spacing) as the population drifts.
//
//   * Pooled event frames. Events are fixed-size nodes from a per-shard
//     slab (the kheap slab idiom applied host-side); callbacks up to
//     kInlineBytes are stored inline, and `schedule_resume` of a coroutine
//     handle stores only the handle address — the steady-state event path
//     never touches the host heap. Oversized callbacks fall back to a
//     counted heap box. Coroutine frames themselves recycle through a
//     size-class pool (detail::frame_alloc below).
//
//   * Per-node shards. `enable_sharding(n, workers, lookahead)` gives every
//     simulated node its own clock and calendar; shards advance in
//     conservative rounds of width `lookahead` (the minimum cross-node wire
//     latency), so events inside a round cannot affect other shards and the
//     shards can drain on parallel host threads. Cross-shard events are
//     staged in per-(src,dst) outboxes and merged at the round barrier in
//     (dst, src, emission) order — the parallel schedule is bit-identical
//     to the sequential one. The default (no sharding) remains a single
//     queue with exactly the pre-sharding semantics.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/time.hpp"

namespace pd::sim {

namespace detail {

/// Size-class recycling pool for coroutine frames (process-global with
/// thread-local caches, so a Task may outlive the Engine that ran it).
/// Frames up to 4 KiB recycle through free lists in 64-byte classes;
/// larger frames go straight to the host heap.
void* frame_alloc(std::size_t bytes);
void frame_free(void* p) noexcept;
/// Donate this thread's cached frames to the shared pool (worker threads
/// call this before exiting so their frames are not stranded).
void frame_cache_flush() noexcept;

struct FramePoolCounters {
  std::uint64_t host_allocs;  ///< frames that had to touch ::operator new
  std::uint64_t pool_hits;    ///< frames served from a free list
};
FramePoolCounters frame_pool_counters() noexcept;

}  // namespace detail

class Engine {
 public:
  /// Scheduler-internal accounting, aggregated over shards. `pool_chunks` +
  /// `boxed_callbacks` + `calendar_rebuilds` are the only event-path host
  /// allocations; bench_sim_scale gates their sum per event.
  struct Stats {
    std::uint64_t pool_chunks = 0;        ///< event-node slab growths
    std::uint64_t boxed_callbacks = 0;    ///< callbacks too big for the SBO
    std::uint64_t calendar_rebuilds = 0;  ///< bucket-array resizes
    std::uint64_t overflow_parked = 0;    ///< events parked past the horizon
    std::uint64_t insert_scan_steps = 0;  ///< nodes walked by out-of-order bucket inserts
    std::uint64_t cross_shard_events = 0;
    std::uint64_t rounds = 0;  ///< conservative rounds (sharded mode)
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  // --- Sharding ------------------------------------------------------------

  /// Split the engine into `shards` per-node queues drained by `workers`
  /// host threads (1 = deterministic sequential rounds; both schedules are
  /// bit-identical). Must be called before anything is scheduled.
  /// `lookahead` is the conservative round width: the minimum simulated
  /// delay of any cross-shard interaction (the fabric wire latency).
  void enable_sharding(int shards, int workers, Dur lookahead);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool sharded() const { return shards_.size() > 1; }
  Dur lookahead() const { return lookahead_; }
  /// Shard that schedule_* calls currently target (see ShardScope).
  int active_shard() const { return ctx_shard().id; }

  /// Pins the calling context to a shard: schedule_at/schedule_resume from
  /// inside the scope target that shard's queue. Event handlers themselves
  /// run with their shard as context, so a coroutine stays on the shard it
  /// was spawned on; scopes matter only for top-level setup code (cluster
  /// construction, rank spawning). No-op clamp to shard 0 when unsharded.
  class ShardScope {
   public:
    ShardScope(Engine& engine, int shard) : engine_(engine), prev_(engine.ambient_shard_) {
      assert(shard >= 0);
      engine_.ambient_shard_ = engine_.sharded() ? shard : 0;
      assert(engine_.ambient_shard_ < engine_.num_shards());
    }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;
    ~ShardScope() { engine_.ambient_shard_ = prev_; }

   private:
    Engine& engine_;
    int prev_;
  };

  // --- Scheduling ----------------------------------------------------------

  /// Current simulated time (of the context shard; identical across shards
  /// at round boundaries).
  Time now() const { return ctx_shard().now; }

  /// Run `fn` at absolute simulated time `t` (>= now, asserted) on the
  /// context shard. Accepts any callable, including move-only ones.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    Shard& sh = ctx_shard();
    assert(t >= sh.now && "cannot schedule into the simulated past");
    EventNode* n = acquire(sh);
    set_payload(sh, *n, std::forward<F>(fn));
    push(sh, n, t);
  }

  /// Run `fn` after `d` picoseconds of simulated time.
  template <typename F>
  void schedule_after(Dur d, F&& fn) {
    schedule_at(ctx_shard().now + d, std::forward<F>(fn));
  }

  /// Run `fn` at time `t` on `shard`'s queue. Same-shard calls are plain
  /// schedules; cross-shard calls stage the event in an outbox merged at
  /// the next round barrier, and must respect the lookahead contract:
  /// t >= source now + lookahead.
  template <typename F>
  void schedule_on(int shard, Time t, F&& fn) {
    Shard& src = ctx_shard();
    Shard& dst = *shards_[static_cast<std::size_t>(shard)];
    if (&dst == &src || !running_) {
      assert(t >= dst.now && "cannot schedule into the simulated past");
      EventNode* n = acquire(dst);
      set_payload(dst, *n, std::forward<F>(fn));
      push(dst, n, t);
      return;
    }
    assert(t >= src.now + lookahead_ && "cross-shard event inside the lookahead window");
    EventNode* n = acquire(src);
    set_payload(src, *n, std::forward<F>(fn));
    n->t = t;  // seq assigned by the destination shard at merge time
    src.outbox[static_cast<std::size_t>(shard)].push_back(n);
    ++src.stats.cross_shard_events;
  }

  /// Resume a suspended coroutine after `d` (used by awaitables). Stores
  /// only the handle address in a pooled node — no host allocation.
  void schedule_resume(Dur d, std::coroutine_handle<> h);

  /// Awaitable: `co_await engine.delay(10_us);`
  struct DelayAwaiter {
    Engine& engine;
    Dur d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine.schedule_resume(d, h); }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(Dur d) { return DelayAwaiter{*this, d}; }

  /// Awaitable that reschedules the coroutine at the current time, behind
  /// everything already queued for `now()` — a cooperative yield.
  DelayAwaiter yield() { return DelayAwaiter{*this, 0}; }

  // --- Execution -----------------------------------------------------------

  /// Process events until every queue drains. Returns the number processed.
  std::uint64_t run();

  /// Process events until the queues drain or `deadline` is passed (events
  /// at exactly `deadline` still run; the clock lands on `deadline` if the
  /// queue drained early).
  std::uint64_t run_until(Time deadline);

  /// Pop and execute a single event. False when the queue is empty.
  /// Single-queue mode only.
  bool step();

  bool idle() const;
  std::uint64_t events_processed() const;
  Stats stats() const;

  // --- Detached-task bookkeeping (see spawn in task.hpp) -------------------
  // The engine records each detached frame so immortal service loops
  // (device engines that `while (true)` forever) are destroyed with the
  // engine rather than leaked when the simulation ends.

  void note_task_spawned(std::coroutine_handle<> h) { ctx_shard().detached.insert(h.address()); }
  void note_task_done(std::coroutine_handle<> h);
  std::int64_t live_tasks() const;

 private:
  struct EventNode {
    /// Sized so a fabric delivery closure (WireChunk plus a port pointer,
    /// ~120 bytes) stays inline; whole node = 3 cache lines.
    static constexpr std::size_t kInlineBytes = 144;

    Time t = 0;
    std::uint64_t seq = 0;
    EventNode* next = nullptr;                       // bucket / free-list link
    void (*invoke)(EventNode&) = nullptr;            // run payload, then destroy it
    void (*drop)(EventNode&) = nullptr;              // destroy payload without running
    void (*relocate)(EventNode&, EventNode&) = nullptr;  // move payload (outbox merge)
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };

  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  struct Shard {
    int id = 0;
    Time now = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;

    // One calendar year: [base, base + buckets.size() * width).
    std::vector<Bucket> buckets;
    Dur width = 100'000;  // 100 ns to start; rebuilds adapt it to the workload
    Time base = 0;
    std::size_t cur = 0;       // min-scan cursor: buckets below are empty
    std::size_t cal_size = 0;  // events currently in buckets
    std::uint64_t pops_since_resize = 0;

    // Far-future fallback: min-heap on (t, seq) of events past the horizon.
    std::vector<EventNode*> overflow;

    // Event-node slab pool.
    EventNode* free_list = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> chunks;

    // Cross-shard staging: one emission-ordered box per destination shard.
    std::vector<std::vector<EventNode*>> outbox;

    std::unordered_set<void*> detached;  // frames of live detached tasks
    Stats stats;
  };

  /// Total event order: (t, seq) ascending.
  static bool later(const EventNode& a, const EventNode& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
  /// `later` on pointers doubles as the std::*_heap comparator: make_heap
  /// with a "greater" comparator keeps the minimum on top.
  static bool heap_later(const EventNode* a, const EventNode* b) { return later(*a, *b); }

  /// The shard schedule_* calls act on: the shard whose event is currently
  /// executing (thread-local, set by the drain loops), else the ambient
  /// scope (ShardScope), else shard 0.
  Shard& ctx_shard() const {
    if (tls_ctx_.engine == this) return *tls_ctx_.shard;
    return *shards_[static_cast<std::size_t>(ambient_shard_)];
  }

  EventNode* acquire(Shard& sh) {
    if (sh.free_list == nullptr) grow_pool(sh);
    EventNode* n = sh.free_list;
    sh.free_list = n->next;
    n->next = nullptr;
    return n;
  }

  static void release(Shard& sh, EventNode* n) {
    n->invoke = nullptr;
    n->drop = nullptr;
    n->relocate = nullptr;
    n->next = sh.free_list;
    sh.free_list = n;
  }

  void push(Shard& sh, EventNode* n, Time t) {
    n->t = t;
    n->seq = sh.next_seq++;
    insert(sh, n);
  }

  /// Install a callable into a node: inline when it fits the SBO buffer,
  /// boxed on the heap (and counted) otherwise.
  template <typename F>
  static void set_payload(Shard& sh, EventNode& n, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_v<D&>, "event callback must be invocable with no arguments");
    if constexpr (sizeof(D) <= EventNode::kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n.buf)) D(std::forward<F>(fn));
      n.invoke = [](EventNode& e) {
        D* f = std::launder(reinterpret_cast<D*>(e.buf));
        (*f)();
        f->~D();
      };
      if constexpr (!std::is_trivially_destructible_v<D>) {
        n.drop = [](EventNode& e) { std::launder(reinterpret_cast<D*>(e.buf))->~D(); };
      }
      if constexpr (!std::is_trivially_copyable_v<D>) {
        n.relocate = [](EventNode& from, EventNode& to) {
          D* f = std::launder(reinterpret_cast<D*>(from.buf));
          ::new (static_cast<void*>(to.buf)) D(std::move(*f));
          f->~D();
        };
      }
    } else {
      auto* boxed = new D(std::forward<F>(fn));
      ++sh.stats.boxed_callbacks;
      std::memcpy(n.buf, &boxed, sizeof(boxed));
      n.invoke = [](EventNode& e) {
        D* p;
        std::memcpy(&p, e.buf, sizeof(p));
        (*p)();
        delete p;
      };
      n.drop = [](EventNode& e) {
        D* p;
        std::memcpy(&p, e.buf, sizeof(p));
        delete p;
      };
      // relocate stays null: the box pointer memcpys between nodes.
    }
  }

  // Calendar-queue mechanics (engine.cpp).
  void grow_pool(Shard& sh);
  static void bucket_insert(Shard& sh, Bucket& b, EventNode* n);
  static EventNode* bucket_pop(Bucket& b);
  void insert(Shard& sh, EventNode* n);
  Time next_time(Shard& sh);           // kNever when the shard is empty
  EventNode* pop_min(Shard& sh);
  void rebase(Shard& sh);              // re-anchor the year at the overflow min
  void rebuild(Shard& sh, std::size_t nbuckets);
  void dispatch(Shard& sh, EventNode* n);

  // Round runners (engine.cpp).
  std::uint64_t run_single(Time deadline);
  std::uint64_t drain_shard(Shard& sh, Time bound);  // events with t < bound
  void merge_outboxes();
  Time global_next_time();
  std::uint64_t run_rounds(Time deadline);
  void run_rounds_parallel(Time deadline);

  static constexpr Time kNever = std::numeric_limits<Time>::max();

  std::vector<std::unique_ptr<Shard>> shards_;
  int workers_ = 1;
  Dur lookahead_ = 0;
  int ambient_shard_ = 0;
  bool running_ = false;

  struct ExecCtx {
    const Engine* engine = nullptr;
    Shard* shard = nullptr;
  };
  static thread_local ExecCtx tls_ctx_;
};

}  // namespace pd::sim
