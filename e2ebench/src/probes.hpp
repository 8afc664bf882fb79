// Process-level probes for the per-layer numbers: thread CPU clocks,
// per-thread kernel counters from /proc/self/task, and a process-wide
// operator-new counter.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

namespace e2e {

// CPU time in ns: the whole process, and the calling thread.
int64_t process_cpu_ns();
int64_t thread_cpu_ns();

// One thread's counters, read from /proc/self/task/<tid>/{comm,io,status}
// and its CPU clock.
//
// syscr/syscw count the read/readv/write/writev system calls and sendfile
// (which bumps both).  recv/recvmsg/send/sendmsg do not go through the VFS
// read/write paths and are NOT counted.
struct ThreadCounters {
  std::string comm;
  int64_t cpu_ns = 0;
  uint64_t syscr = 0;
  uint64_t syscw = 0;
  uint64_t voluntary_switches = 0;
};

using ThreadTable = std::map<pid_t, ThreadCounters>;

// Every thread of this process except `exclude` (the load generator).
ThreadTable read_threads(pid_t exclude);

// Sums of (after - before) per thread class, by thread name:
// "dispatch-*" is the COPS reactor, "proxy" the proxy's reactor, and every
// other thread (processor pool, file I/O) is a worker.
struct ClassDelta {
  int64_t reactor_cpu_ns = 0;
  int64_t proxy_cpu_ns = 0;
  int64_t worker_cpu_ns = 0;
  uint64_t syscr = 0;                // all server threads
  uint64_t syscw = 0;                // all server threads
  uint64_t voluntary_switches = 0;   // all server threads
};
ClassDelta diff_threads(const ThreadTable& before, const ThreadTable& after);

pid_t current_tid();

// Host-wide CPU ticks from /proc/stat: time stolen by the hypervisor, and
// the total.  Their ratio over a run says how contended the host was.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks host_ticks();

// Process-wide operator-new counter.  Counting is off until enabled, and
// never counts allocations made on a thread that called
// exclude_this_thread_from_alloc_count().
struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
void exclude_this_thread_from_alloc_count();
AllocTotals alloc_totals();

}  // namespace e2e
