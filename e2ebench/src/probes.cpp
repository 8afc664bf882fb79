#include "probes.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>

namespace e2e {
namespace {

int64_t clock_ns(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// The kernel's per-thread CPU clock id for `tid` (the encoding glibc's
// pthread_getcpuclockid uses: ~tid << 3 | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED).
clockid_t thread_clock(pid_t tid) {
  return static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
}

// Reads a small /proc file into `buf`; returns the byte count (0 on error).
size_t slurp(const char* path, char* buf, size_t cap) {
  const int fd = open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  const ssize_t n = read(fd, buf, cap - 1);
  close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  return static_cast<size_t>(n);
}

uint64_t field(const char* text, const char* key) {
  const char* p = std::strstr(text, key);
  if (p == nullptr) return 0;
  return std::strtoull(p + std::strlen(key), nullptr, 10);
}

std::atomic<bool> g_alloc_on{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
// Trivially constructible, so reading it cannot recurse into operator new.
thread_local bool t_alloc_excluded = false;

void note_alloc(std::size_t size) {
  if (g_alloc_on.load(std::memory_order_relaxed) && !t_alloc_excluded) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  note_alloc(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  note_alloc(size);
  void* p = nullptr;
  const auto a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
pid_t current_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

HostTicks host_ticks() {
  char buf[512];
  HostTicks t;
  if (slurp("/proc/stat", buf, sizeof(buf)) == 0) return t;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  const char* p = buf + 3;
  for (int i = 0; i < 8; ++i) {
    char* end = nullptr;
    const uint64_t v = std::strtoull(p, &end, 10);
    if (end == p) break;
    t.total += v;
    if (i == 7) t.steal = v;
    p = end;
  }
  return t;
}

ThreadTable read_threads(pid_t exclude) {
  ThreadTable table;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return table;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    const auto tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid == exclude) continue;
    ThreadCounters t;
    char path[96];
    char buf[2048];
    std::snprintf(path, sizeof(path), "/proc/self/task/%d/comm", tid);
    if (slurp(path, buf, sizeof(buf)) > 0) {
      t.comm = buf;
      while (!t.comm.empty() && t.comm.back() == '\n') t.comm.pop_back();
    }
    std::snprintf(path, sizeof(path), "/proc/self/task/%d/io", tid);
    if (slurp(path, buf, sizeof(buf)) > 0) {
      t.syscr = field(buf, "syscr:");
      t.syscw = field(buf, "syscw:");
    }
    std::snprintf(path, sizeof(path), "/proc/self/task/%d/status", tid);
    if (slurp(path, buf, sizeof(buf)) > 0) {
      t.voluntary_switches = field(buf, "\nvoluntary_ctxt_switches:");
    }
    t.cpu_ns = clock_ns(thread_clock(tid));
    table.emplace(tid, std::move(t));
  }
  closedir(dir);
  return table;
}

ClassDelta diff_threads(const ThreadTable& before, const ThreadTable& after) {
  ClassDelta d;
  for (const auto& [tid, t] : after) {
    ThreadCounters base;
    if (auto it = before.find(tid); it != before.end()) base = it->second;
    const int64_t cpu = t.cpu_ns - base.cpu_ns;
    if (t.comm.rfind("dispatch-", 0) == 0) {
      d.reactor_cpu_ns += cpu;
    } else if (t.comm == "proxy") {
      d.proxy_cpu_ns += cpu;
    } else {
      d.worker_cpu_ns += cpu;
    }
    d.syscr += t.syscr - base.syscr;
    d.syscw += t.syscw - base.syscw;
    d.voluntary_switches += t.voluntary_switches - base.voluntary_switches;
  }
  return d;
}

void set_alloc_counting(bool on) {
  g_alloc_on.store(on, std::memory_order_relaxed);
}

void exclude_this_thread_from_alloc_count() { t_alloc_excluded = true; }

AllocTotals alloc_totals() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace e2e

// Replacement global allocation functions (this executable only).  GCC pairs
// the malloc-backed operator new with the free() in operator delete at
// inlining sites and warns, although the pair is symmetric by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return e2e::counted_alloc(size); }
void* operator new[](std::size_t size) { return e2e::counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2e::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2e::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return e2e::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return e2e::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
