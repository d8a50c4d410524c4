// Measurements taken from outside the runtime: per-thread CPU and context
// switches from /proc, process CPU and peak RSS from getrusage/clock_gettime.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct ThreadStat {
  pid_t tid = 0;
  std::string comm;      ///< thread name: "<res>-w0", "<res>-io0", ...
  int64_t cpu_ns = 0;    ///< on-CPU time (schedstat, ns resolution)
  uint64_t ctx_switches = 0;  ///< voluntary + involuntary
};

/// Every thread of this process. Threads that exit while the directory is
/// walked are skipped.
std::vector<ThreadStat> read_threads();

/// Thread stats keyed by tid; `later` minus `earlier` for threads present in
/// `earlier`, whole values for threads born in between.
std::vector<ThreadStat> thread_delta(const std::vector<ThreadStat>& earlier,
                                     const std::vector<ThreadStat>& later);

/// Role of a runtime thread from its name: "w" (granules worker), "io"
/// (event loop) or "" (anything else); `resource` receives the prefix.
std::string thread_role(const std::string& comm, std::string* resource = nullptr);

/// CPU (user+sys) this process has used, ns.
int64_t process_cpu_ns();
/// CPU (user+sys) of reaped children, ns.
int64_t children_cpu_ns();
/// Peak RSS of this process since start or the last reset_peak_rss(), MB
/// (VmHWM; the reset writes "5" to /proc/self/clear_refs).
double peak_rss_mb();
void reset_peak_rss();

}  // namespace perfbench
