// Keeps every CPU out of its idle state while network ops run.
//
// On a virtual machine an idle virtual CPU goes back to the host, and
// waking it for the next loopback request costs the host's scheduling
// latency, which swings with the neighbours' load: it was the largest
// source of run-to-run spread in the sub-millisecond GETs. While a
// KeepAwake lives, one SCHED_IDLE thread per CPU spins with a pause
// instruction. The kernel runs such a thread only when nothing else on
// its CPU is runnable, so the program's threads always come first; the
// effect is that of booting with idle=poll. A thread that cannot lower
// itself to SCHED_IDLE stops at once instead of competing.
#pragma once

#include <time.h>

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

class KeepAwake {
 public:
  explicit KeepAwake(unsigned threads);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// CPU seconds the spinning threads have used so far, for the process
  /// accounting to leave out.
  double cpu_s() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<clockid_t> clocks_;  // the threads' CPU-time clocks
};

}  // namespace perfbench
