#include "src/sim/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <mutex>
#include <thread>

namespace pd::sim {

// ---------------------------------------------------------------------------
// Coroutine-frame pool.
//
// Process-global (a Task may outlive its Engine) with thread-local caches so
// sharded drains never contend on the hot path. A 16-byte header in front of
// each frame records its size class; class 0 means "too big, plain heap".
// ---------------------------------------------------------------------------

namespace detail {
namespace {

constexpr std::size_t kFrameHeader = 16;  // keeps the frame max_align_t-aligned
constexpr std::size_t kClassStride = 64;
constexpr std::size_t kNumClasses = 64;  // pool frames up to 4 KiB

struct FreeFrame {
  FreeFrame* next;
};

struct GlobalFramePool {
  std::mutex mu;
  std::array<FreeFrame*, kNumClasses> lists{};
};

GlobalFramePool& global_pool() {
  static GlobalFramePool pool;
  return pool;
}

std::atomic<std::uint64_t> g_frame_host_allocs{0};
std::atomic<std::uint64_t> g_frame_pool_hits{0};

// No destructor: frames cached at process exit are reclaimed by the OS.
// Worker threads flush explicitly via frame_cache_flush().
thread_local std::array<FreeFrame*, kNumClasses> t_frame_cache{};

void write_class(unsigned char* base, std::uint64_t cls) {
  std::memcpy(base, &cls, sizeof(cls));
}

}  // namespace

void* frame_alloc(std::size_t bytes) {
  const std::size_t total = bytes + kFrameHeader;
  const std::size_t cls = (total + kClassStride - 1) / kClassStride;
  if (cls <= kNumClasses) {
    FreeFrame*& head = t_frame_cache[cls - 1];
    if (head == nullptr) {
      // Batch refill: steal the whole global list for this class.
      GlobalFramePool& g = global_pool();
      std::lock_guard<std::mutex> lock(g.mu);
      head = g.lists[cls - 1];
      g.lists[cls - 1] = nullptr;
    }
    if (head != nullptr) {
      FreeFrame* f = head;
      head = f->next;
      g_frame_pool_hits.fetch_add(1, std::memory_order_relaxed);
      auto* base = reinterpret_cast<unsigned char*>(f);
      write_class(base, cls);
      return base + kFrameHeader;
    }
    g_frame_host_allocs.fetch_add(1, std::memory_order_relaxed);
    auto* base = static_cast<unsigned char*>(::operator new(cls * kClassStride));
    write_class(base, cls);
    return base + kFrameHeader;
  }
  g_frame_host_allocs.fetch_add(1, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(::operator new(total));
  write_class(base, 0);
  return base + kFrameHeader;
}

void frame_free(void* p) noexcept {
  auto* base = static_cast<unsigned char*>(p) - kFrameHeader;
  std::uint64_t cls;
  std::memcpy(&cls, base, sizeof(cls));
  if (cls == 0) {
    ::operator delete(base);
    return;
  }
  auto* f = reinterpret_cast<FreeFrame*>(base);
  f->next = t_frame_cache[cls - 1];
  t_frame_cache[cls - 1] = f;
}

void frame_cache_flush() noexcept {
  GlobalFramePool& g = global_pool();
  std::lock_guard<std::mutex> lock(g.mu);
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    FreeFrame* f = t_frame_cache[c];
    t_frame_cache[c] = nullptr;
    while (f != nullptr) {
      FreeFrame* next = f->next;
      f->next = g.lists[c];
      g.lists[c] = f;
      f = next;
    }
  }
}

FramePoolCounters frame_pool_counters() noexcept {
  return {g_frame_host_allocs.load(std::memory_order_relaxed),
          g_frame_pool_hits.load(std::memory_order_relaxed)};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

thread_local Engine::ExecCtx Engine::tls_ctx_{};

namespace {
constexpr std::size_t kChunkNodes = 256;
constexpr std::size_t kInitBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
}  // namespace

Engine::Engine() {
  shards_.push_back(std::make_unique<Shard>());
  shards_.back()->buckets.resize(kInitBuckets);
}

Engine::~Engine() {
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    // Destroy pending payloads without running them (a drained simulation
    // has none; run_until can leave some behind).
    for (std::size_t i = sh.cur; i < sh.buckets.size(); ++i)
      for (EventNode* n = sh.buckets[i].head; n != nullptr; n = n->next)
        if (n->drop != nullptr) n->drop(*n);
    for (EventNode* n : sh.overflow)
      if (n->drop != nullptr) n->drop(*n);
    for (auto& box : sh.outbox)
      for (EventNode* n : box)
        if (n->drop != nullptr) n->drop(*n);
    // Detached service coroutines (device engines etc.) loop forever and
    // are still suspended when the simulation ends; reclaim their frames.
    // Nothing resumes during teardown, so destroying in set order is safe —
    // detached frames are top-level and never own one another.
    for (void* addr : sh.detached) std::coroutine_handle<>::from_address(addr).destroy();
  }
}

void Engine::enable_sharding(int shards, int workers, Dur lookahead) {
  assert(shards >= 1);
  assert(!running_);
  assert(shards_.size() == 1 && shards_[0]->next_seq == 0 && shards_[0]->detached.empty() &&
         "sharding must be configured before anything is scheduled or spawned");
  if (shards <= 1) return;
  assert(lookahead > 0 && "sharded mode needs a positive conservative lookahead");
  shards_.clear();
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->id = s;
    sh->buckets.resize(kInitBuckets);
    sh->outbox.resize(static_cast<std::size_t>(shards));
    shards_.push_back(std::move(sh));
  }
  workers_ = std::min(std::max(1, workers), shards);
  lookahead_ = lookahead;
}

void Engine::schedule_resume(Dur d, std::coroutine_handle<> h) {
  assert(d >= 0);
  Shard& sh = ctx_shard();
  EventNode* n = acquire(sh);
  void* addr = h.address();
  std::memcpy(n->buf, &addr, sizeof(addr));
  n->invoke = [](EventNode& e) {
    void* a;
    std::memcpy(&a, e.buf, sizeof(a));
    std::coroutine_handle<>::from_address(a).resume();
  };
  // drop stays null: an unresumed coroutine is reclaimed by its owner
  // (Task destructor or the detached-frame sweep), not by the event queue.
  push(sh, n, sh.now + d);
}

void Engine::grow_pool(Shard& sh) {
  auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    chunk[i].next = sh.free_list;
    sh.free_list = &chunk[i];
  }
  sh.chunks.push_back(std::move(chunk));
  ++sh.stats.pool_chunks;
}

void Engine::bucket_insert(Shard& sh, Bucket& b, EventNode* n) {
  n->next = nullptr;
  if (b.head == nullptr) {
    b.head = b.tail = n;
    return;
  }
  if (!later(*b.tail, *n)) {
    // Fast path: events overwhelmingly arrive in (t, seq) order.
    b.tail->next = n;
    b.tail = n;
    return;
  }
  if (later(*b.head, *n)) {
    n->next = b.head;
    b.head = n;
    return;
  }
  EventNode* p = b.head;
  std::uint64_t steps = 0;
  for (; p->next != nullptr && !later(*p->next, *n); ++steps) p = p->next;
  sh.stats.insert_scan_steps += steps;
  n->next = p->next;
  p->next = n;  // tail unchanged: n landed strictly before the old tail
}

Engine::EventNode* Engine::bucket_pop(Bucket& b) {
  EventNode* n = b.head;
  b.head = n->next;
  if (b.head == nullptr) b.tail = nullptr;
  n->next = nullptr;
  return n;
}

void Engine::insert(Shard& sh, EventNode* n) {
  const Time horizon = sh.base + static_cast<Time>(sh.buckets.size()) * sh.width;
  if (n->t >= horizon) {
    sh.overflow.push_back(n);
    std::push_heap(sh.overflow.begin(), sh.overflow.end(), heap_later);
    ++sh.stats.overflow_parked;
    return;
  }
  if (n->t < sh.base) {
    // The calendar was re-anchored past this time (a rebase to a far-future
    // overflow event while the near term was empty); park the event and
    // rebuild, which re-anchors the year at the earliest pending time.
    sh.overflow.push_back(n);
    std::push_heap(sh.overflow.begin(), sh.overflow.end(), heap_later);
    rebuild(sh, sh.buckets.size());
    return;
  }
  const auto idx = static_cast<std::size_t>((n->t - sh.base) / sh.width);
  bucket_insert(sh, sh.buckets[idx], n);
  if (idx < sh.cur) sh.cur = idx;
  ++sh.cal_size;
  if (sh.cal_size > 2 * sh.buckets.size() && sh.buckets.size() < kMaxBuckets)
    rebuild(sh, sh.buckets.size() * 2);
}

Time Engine::next_time(Shard& sh) {
  if (sh.cal_size == 0) {
    if (sh.overflow.empty()) return kNever;
    rebase(sh);
  }
  std::size_t i = sh.cur;
  while (sh.buckets[i].head == nullptr) ++i;  // cal_size > 0 bounds the scan
  sh.cur = i;
  return sh.buckets[i].head->t;
}

Engine::EventNode* Engine::pop_min(Shard& sh) {
  if (next_time(sh) == kNever) return nullptr;
  EventNode* n = bucket_pop(sh.buckets[sh.cur]);
  --sh.cal_size;
  ++sh.pops_since_resize;
  if (sh.pops_since_resize >= sh.buckets.size() / 2 && sh.buckets.size() > kInitBuckets &&
      sh.cal_size + sh.overflow.size() < sh.buckets.size() / 8)
    rebuild(sh, std::max(kInitBuckets, sh.buckets.size() / 2));
  return n;
}

void Engine::rebase(Shard& sh) {
  // Calendar year drained; re-anchor it at the earliest overflow event and
  // migrate everything that now falls inside the horizon.
  EventNode* top = sh.overflow.front();
  sh.base = top->t - (top->t % sh.width);
  sh.cur = 0;
  const Time horizon = sh.base + static_cast<Time>(sh.buckets.size()) * sh.width;
  while (!sh.overflow.empty() && sh.overflow.front()->t < horizon) {
    std::pop_heap(sh.overflow.begin(), sh.overflow.end(), heap_later);
    EventNode* n = sh.overflow.back();
    sh.overflow.pop_back();
    const auto idx = static_cast<std::size_t>((n->t - sh.base) / sh.width);
    bucket_insert(sh, sh.buckets[idx], n);
    ++sh.cal_size;
  }
}

void Engine::rebuild(Shard& sh, std::size_t nbuckets) {
  ++sh.stats.calendar_rebuilds;
  sh.pops_since_resize = 0;

  std::vector<EventNode*> all;
  all.reserve(sh.cal_size + sh.overflow.size());
  for (std::size_t i = sh.cur; i < sh.buckets.size(); ++i)
    for (EventNode* n = sh.buckets[i].head; n != nullptr;) {
      EventNode* next = n->next;
      all.push_back(n);
      n = next;
    }
  all.insert(all.end(), sh.overflow.begin(), sh.overflow.end());
  sh.overflow.clear();

  // Re-derive the bucket width from the observed event spacing: twice the
  // mean gap between adjacent events, so a bucket holds a handful of events
  // on average. The sample takes every `stride`-th event, so a gap between
  // neighbouring samples spans `stride` events and is scaled down by it.
  if (all.size() >= 2) {
    std::array<Time, 64> sample;
    const std::size_t take = std::min(all.size(), sample.size());
    const auto stride = static_cast<Dur>(all.size() / take);
    for (std::size_t i = 0; i < take; ++i) sample[i] = all[i * all.size() / take]->t;
    std::sort(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(take));
    Dur gap_sum = 0;
    int gaps = 0;
    for (std::size_t i = 1; i < take; ++i)
      if (sample[i] > sample[i - 1]) {
        gap_sum += sample[i] - sample[i - 1];
        ++gaps;
      }
    if (gaps > 0) sh.width = std::max<Dur>(1, 2 * gap_sum / (gaps * stride));
  }

  sh.buckets.assign(nbuckets, Bucket{});
  sh.cal_size = 0;
  sh.cur = 0;
  Time lo = sh.now;
  for (EventNode* n : all) lo = std::min(lo, n->t);
  sh.base = lo - (lo % sh.width);
  const Time horizon = sh.base + static_cast<Time>(nbuckets) * sh.width;
  for (EventNode* n : all) {
    if (n->t >= horizon) {
      sh.overflow.push_back(n);
      std::push_heap(sh.overflow.begin(), sh.overflow.end(), heap_later);
    } else {
      bucket_insert(sh, sh.buckets[static_cast<std::size_t>((n->t - sh.base) / sh.width)], n);
      ++sh.cal_size;
    }
  }
}

void Engine::dispatch(Shard& sh, EventNode* n) {
  sh.now = n->t;
  ++sh.processed;
  n->invoke(*n);
  release(sh, n);
}

bool Engine::step() {
  assert(!sharded() && "step() drives the single-queue engine only");
  Shard& sh = *shards_[0];
  EventNode* n = pop_min(sh);
  if (n == nullptr) return false;
  const ExecCtx saved = tls_ctx_;
  tls_ctx_ = {this, &sh};
  dispatch(sh, n);
  tls_ctx_ = saved;
  return true;
}

std::uint64_t Engine::run_single(Time deadline) {
  Shard& sh = *shards_[0];
  const ExecCtx saved = tls_ctx_;
  tls_ctx_ = {this, &sh};
  running_ = true;
  std::uint64_t n = 0;
  while (true) {
    const Time t = next_time(sh);
    if (t == kNever || t > deadline) break;
    dispatch(sh, pop_min(sh));
    ++n;
  }
  running_ = false;
  tls_ctx_ = saved;
  if (deadline != kNever && sh.now < deadline && sh.cal_size == 0 && sh.overflow.empty())
    sh.now = deadline;
  return n;
}

std::uint64_t Engine::drain_shard(Shard& sh, Time bound) {
  const ExecCtx saved = tls_ctx_;
  tls_ctx_ = {this, &sh};
  std::uint64_t n = 0;
  while (true) {
    const Time t = next_time(sh);
    if (t >= bound) break;  // kNever exits too
    dispatch(sh, pop_min(sh));
    ++n;
  }
  tls_ctx_ = saved;
  return n;
}

void Engine::merge_outboxes() {
  // Deterministic merge order: destination-major, then source shard, then
  // emission order within a box. Destination assigns the sequence numbers,
  // so this order IS the tie-break order — identical no matter how many
  // workers drained the round.
  const int s_count = num_shards();
  for (int d = 0; d < s_count; ++d) {
    Shard& dst = *shards_[static_cast<std::size_t>(d)];
    for (int s = 0; s < s_count; ++s) {
      Shard& src = *shards_[static_cast<std::size_t>(s)];
      auto& box = src.outbox[static_cast<std::size_t>(d)];
      for (EventNode* n : box) {
        EventNode* m = acquire(dst);
        m->invoke = n->invoke;
        m->drop = n->drop;
        m->relocate = n->relocate;
        if (n->relocate != nullptr)
          n->relocate(*n, *m);
        else
          std::memcpy(m->buf, n->buf, EventNode::kInlineBytes);
        assert(n->t >= dst.now);
        push(dst, m, n->t);
        release(src, n);
      }
      box.clear();
    }
  }
}

Time Engine::global_next_time() {
  Time t = kNever;
  for (auto& shp : shards_) t = std::min(t, next_time(*shp));
  return t;
}

std::uint64_t Engine::run_rounds(Time deadline) {
  std::uint64_t before = 0;
  for (auto& shp : shards_) before += shp->processed;
  running_ = true;
  if (workers_ <= 1) {
    while (true) {
      const Time t0 = global_next_time();
      if (t0 == kNever || t0 > deadline) break;
      const Time bound =
          deadline == kNever ? t0 + lookahead_ : std::min(t0 + lookahead_, deadline + 1);
      for (auto& shp : shards_) drain_shard(*shp, bound);
      merge_outboxes();
      for (auto& shp : shards_) ++shp->stats.rounds;
    }
  } else {
    run_rounds_parallel(deadline);
  }
  running_ = false;
  if (deadline != kNever && idle())
    for (auto& shp : shards_) shp->now = std::max(shp->now, deadline);
  std::uint64_t after = 0;
  for (auto& shp : shards_) after += shp->processed;
  return after - before;
}

void Engine::run_rounds_parallel(Time deadline) {
  const int s_count = num_shards();
  const int w_count = workers_;
  std::barrier<> gate(w_count + 1);
  std::atomic<bool> stop{false};
  Time bound = 0;  // written by the coordinator, published by the barrier

  std::vector<std::thread> crew;
  crew.reserve(static_cast<std::size_t>(w_count));
  for (int w = 0; w < w_count; ++w) {
    crew.emplace_back([this, &gate, &stop, &bound, w, s_count, w_count] {
      while (true) {
        gate.arrive_and_wait();  // round published (bound valid, or stop set)
        if (stop.load(std::memory_order_relaxed)) break;
        // Fixed shard->worker striping: shard s always drains on worker
        // s % w_count, so per-shard state never migrates mid-run.
        for (int s = w; s < s_count; s += w_count)
          drain_shard(*shards_[static_cast<std::size_t>(s)], bound);
        gate.arrive_and_wait();  // round drained
      }
      detail::frame_cache_flush();  // donate cached coroutine frames back
    });
  }

  while (true) {
    const Time t0 = global_next_time();
    if (t0 == kNever || t0 > deadline) {
      stop.store(true, std::memory_order_relaxed);
      gate.arrive_and_wait();
      break;
    }
    bound = deadline == kNever ? t0 + lookahead_ : std::min(t0 + lookahead_, deadline + 1);
    gate.arrive_and_wait();  // release the crew into the round
    gate.arrive_and_wait();  // every shard drained
    merge_outboxes();
    for (auto& shp : shards_) ++shp->stats.rounds;
  }
  for (auto& th : crew) th.join();
}

std::uint64_t Engine::run() { return sharded() ? run_rounds(kNever) : run_single(kNever); }

std::uint64_t Engine::run_until(Time deadline) {
  return sharded() ? run_rounds(deadline) : run_single(deadline);
}

bool Engine::idle() const {
  for (auto& shp : shards_) {
    if (shp->cal_size != 0 || !shp->overflow.empty()) return false;
    for (auto& box : shp->outbox)
      if (!box.empty()) return false;
  }
  return true;
}

std::uint64_t Engine::events_processed() const {
  std::uint64_t n = 0;
  for (auto& shp : shards_) n += shp->processed;
  return n;
}

Engine::Stats Engine::stats() const {
  Stats total;
  for (auto& shp : shards_) {
    total.pool_chunks += shp->stats.pool_chunks;
    total.boxed_callbacks += shp->stats.boxed_callbacks;
    total.calendar_rebuilds += shp->stats.calendar_rebuilds;
    total.overflow_parked += shp->stats.overflow_parked;
    total.insert_scan_steps += shp->stats.insert_scan_steps;
    total.cross_shard_events += shp->stats.cross_shard_events;
    total.rounds = std::max(total.rounds, shp->stats.rounds);
  }
  return total;
}

void Engine::note_task_done(std::coroutine_handle<> h) {
  Shard& sh = ctx_shard();
  if (sh.detached.erase(h.address()) > 0) return;
  // A detached frame finishing off its spawn shard would be a cross-shard
  // resume — forbidden while rounds are running (the scan below would race).
  assert(!running_ || !sharded());
  for (auto& shp : shards_)
    if (shp->detached.erase(h.address()) > 0) return;
}

std::int64_t Engine::live_tasks() const {
  std::int64_t n = 0;
  for (auto& shp : shards_) n += static_cast<std::int64_t>(shp->detached.size());
  return n;
}

}  // namespace pd::sim
