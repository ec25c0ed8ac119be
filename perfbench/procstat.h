// Process accounting for the benchmark binary: CPU time, global
// operator new calls, and peak resident set. Client and server share
// the process, so these cover both sides of every op.
#pragma once

#include <cstdint>

namespace perfbench {

struct ProcSample {
  double cpu_s = 0.0;             ///< user + system, all threads
  std::uint64_t allocs = 0;       ///< global operator new calls
  std::uint64_t alloc_bytes = 0;  ///< bytes those calls asked for
};

ProcSample proc_sample();

/// Peak resident set (VmHWM) in MB; 0 if /proc is unreadable.
double rss_peak_mb();

/// Restart the peak-resident-set mark from the current resident set
/// (/proc/self/clear_refs). Returns false when the kernel refuses, in
/// which case rss_peak_mb() keeps counting from process start.
bool reset_rss_peak();

}  // namespace perfbench
