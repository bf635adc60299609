/* heapprof: LD_PRELOAD heap attribution by call stack at the peak.
 *
 * Interposes malloc/calloc/realloc/free and the aligned allocators, tags
 * every live block with the call stack that allocated it, and keeps the
 * live bytes of each distinct stack. Whenever the process's live heap
 * exceeds the last recorded peak by more than HEAPPROF_STEP bytes (default
 * 256 KiB), the per-stack live bytes are snapshotted; at exit the snapshot
 * of the highest peak is written, with /proc/self/maps so the addresses
 * can be symbolized offline (tools/heapprof.py does that with addr2line).
 * The reported peak is therefore within HEAPPROF_STEP of the true one.
 *
 * Built by tools/heapprof.py with the system C compiler; it needs nothing
 * from the repository's build. Tables live in mmap'd memory so the
 * profiler never recurses into the allocator it measures.
 *
 *   HEAPPROF_OUT   output path; "%p" expands to the pid (default
 *                  heapprof.%p.txt)
 *   HEAPPROF_STEP  snapshot granularity in bytes
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);
extern void __libc_free(void*);

#define DEPTH 16       /* frames kept per stack (after the hook's own) */
#define SKIP 2         /* the hook frame and record() */
#define MAX_STACKS (1u << 18)

typedef struct {
  uintptr_t pc[DEPTH];
  int depth;
  uint64_t live;   /* bytes currently allocated from this stack */
  uint64_t peak;   /* live bytes at the last peak snapshot */
  uint64_t count;  /* allocations ever made from this stack */
} Stack;

typedef struct {
  uintptr_t ptr;  /* 0 = empty slot */
  uint64_t size;
  uint32_t stack;
} Block;

static Stack* stacks;        /* open addressing on the pc hash */
static uint32_t* stack_ids;  /* MAX_STACKS*2 slots: index+1 into stacks, 0 empty */
static uint32_t nstacks;
static Block* blocks;
static size_t block_cap, nblocks;
static uint64_t live_total, peak_total, step = 256 * 1024;
static int ready, failed;
static __thread int busy;
static volatile int lock_word;

static void lock(void) {
  while (__sync_lock_test_and_set(&lock_word, 1)) {
  }
}
static void unlock(void) { __sync_lock_release(&lock_word); }

static void* map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

static size_t slot_of(uintptr_t ptr, size_t cap) { return mix(ptr) & (cap - 1); }

static int grow_blocks(void) {
  size_t cap = block_cap ? block_cap * 2 : (1u << 20);
  Block* fresh = map(cap * sizeof(Block));
  if (fresh == NULL) return 0;
  for (size_t i = 0; i < block_cap; ++i) {
    if (blocks[i].ptr == 0) continue;
    size_t j = slot_of(blocks[i].ptr, cap);
    while (fresh[j].ptr != 0) j = (j + 1) & (cap - 1);
    fresh[j] = blocks[i];
  }
  if (blocks != NULL) munmap(blocks, block_cap * sizeof(Block));
  blocks = fresh;
  block_cap = cap;
  return 1;
}

static uint32_t intern(uintptr_t* pc, int depth) {
  uint64_t h = 0;
  for (int i = 0; i < depth; ++i) h = mix(h ^ pc[i]);
  size_t cap = (size_t)MAX_STACKS * 2;
  for (size_t j = h & (cap - 1);; j = (j + 1) & (cap - 1)) {
    uint32_t id = stack_ids[j];
    if (id == 0) {
      if (nstacks == MAX_STACKS) return UINT32_MAX;
      Stack* s = &stacks[nstacks];
      memcpy(s->pc, pc, sizeof(uintptr_t) * (size_t)depth);
      s->depth = depth;
      stack_ids[j] = ++nstacks;
      return nstacks - 1;
    }
    Stack* s = &stacks[id - 1];
    if (s->depth == depth && memcmp(s->pc, pc, sizeof(uintptr_t) * (size_t)depth) == 0)
      return id - 1;
  }
}

static void snapshot(void) {
  for (uint32_t i = 0; i < nstacks; ++i) stacks[i].peak = stacks[i].live;
  peak_total = live_total;
}

static int setup(void) {
  if (ready || failed) return ready;
  const char* s = getenv("HEAPPROF_STEP");
  if (s != NULL && *s != '\0') step = strtoull(s, NULL, 0);
  stacks = map(sizeof(Stack) * MAX_STACKS);
  stack_ids = map(sizeof(uint32_t) * MAX_STACKS * 2);
  if (stacks == NULL || stack_ids == NULL || !grow_blocks()) {
    failed = 1;
    return 0;
  }
  ready = 1;
  return 1;
}

static void record(void* ptr, size_t size) {
  if (ptr == NULL || busy) return;
  busy = 1;  /* backtrace() may allocate on its first call */
  void* frames[DEPTH + SKIP];
  int n = backtrace(frames, DEPTH + SKIP);
  lock();
  if (setup()) {
    if ((nblocks + 1) * 4 > block_cap * 3 && !grow_blocks()) failed = 1;
    int depth = n > SKIP ? n - SKIP : 0;
    uint32_t id = intern((uintptr_t*)frames + SKIP, depth);
    if (!failed && id != UINT32_MAX) {
      size_t j = slot_of((uintptr_t)ptr, block_cap);
      while (blocks[j].ptr != 0) j = (j + 1) & (block_cap - 1);
      blocks[j].ptr = (uintptr_t)ptr;
      blocks[j].size = size;
      blocks[j].stack = id;
      ++nblocks;
      stacks[id].live += size;
      ++stacks[id].count;
      live_total += size;
      if (live_total > peak_total + step) snapshot();
    }
  }
  unlock();
  busy = 0;
}

static void forget(void* ptr) {
  if (ptr == NULL || !ready) return;
  lock();
  size_t j = slot_of((uintptr_t)ptr, block_cap);
  while (blocks[j].ptr != 0 && blocks[j].ptr != (uintptr_t)ptr) j = (j + 1) & (block_cap - 1);
  if (blocks[j].ptr != 0) {
    stacks[blocks[j].stack].live -= blocks[j].size;
    live_total -= blocks[j].size;
    --nblocks;
    /* Backward-shift delete keeps probe chains tombstone-free. */
    size_t hole = j;
    for (size_t k = (j + 1) & (block_cap - 1); blocks[k].ptr != 0; k = (k + 1) & (block_cap - 1)) {
      size_t home = slot_of(blocks[k].ptr, block_cap);
      int keep = hole <= k ? (hole < home && home <= k) : (hole < home || home <= k);
      if (keep) continue;
      blocks[hole] = blocks[k];
      hole = k;
    }
    blocks[hole].ptr = 0;
  }
  unlock();
}

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  record(p, n);
  return p;
}

void* calloc(size_t n, size_t m) {
  void* p = __libc_calloc(n, m);
  record(p, n * m);
  return p;
}

void* realloc(void* old, size_t n) {
  forget(old);
  void* p = __libc_realloc(old, n);
  record(p, n);
  return p;
}

void free(void* p) {
  forget(p);
  __libc_free(p);
}

void* memalign(size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  record(p, n);
  return p;
}

void* aligned_alloc(size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  record(p, n);
  return p;
}

int posix_memalign(void** out, size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  if (p == NULL) return 12; /* ENOMEM */
  record(p, n);
  *out = p;
  return 0;
}

static void write_all(int fd, const char* buf, size_t len) {
  while (len > 0) {
    ssize_t w = write(fd, buf, len);
    if (w <= 0) return;
    buf += w;
    len -= (size_t)w;
  }
}

__attribute__((destructor)) static void dump(void) {
  if (!ready) return;
  busy = 1;
  if (live_total > peak_total) snapshot();
  char path[4096];
  const char* pattern = getenv("HEAPPROF_OUT");
  if (pattern == NULL || *pattern == '\0') pattern = "heapprof.%p.txt";
  size_t o = 0;
  for (const char* c = pattern; *c != '\0' && o + 24 < sizeof(path); ++c) {
    if (c[0] == '%' && c[1] == 'p') {
      o += (size_t)snprintf(path + o, sizeof(path) - o, "%d", (int)getpid());
      ++c;
    } else {
      path[o++] = *c;
    }
  }
  path[o] = '\0';
  int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char line[64 + DEPTH * 20];
  int len = snprintf(line, sizeof(line), "peak_bytes %llu\nstacks %u\nfailed %d\n",
                     (unsigned long long)peak_total, nstacks, failed);
  write_all(fd, line, (size_t)len);
  for (uint32_t i = 0; i < nstacks; ++i) {
    const Stack* s = &stacks[i];
    if (s->peak == 0) continue;
    len = snprintf(line, sizeof(line), "stack %llu %llu", (unsigned long long)s->peak,
                   (unsigned long long)s->count);
    for (int d = 0; d < s->depth; ++d)
      len += snprintf(line + len, sizeof(line) - (size_t)len, " %lx", (unsigned long)s->pc[d]);
    line[len++] = '\n';
    write_all(fd, line, (size_t)len);
  }
  /* The module map, verbatim, for offline symbolization. */
  int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    write_all(fd, "maps\n", 5);
    char buf[4096];
    ssize_t r;
    while ((r = read(maps, buf, sizeof(buf))) > 0) write_all(fd, buf, (size_t)r);
    close(maps);
  }
  close(fd);
}
