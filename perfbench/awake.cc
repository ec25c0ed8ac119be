#include "awake.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

namespace perfbench {
namespace {

void relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

KeepAwake::KeepAwake(unsigned threads) {
  for (unsigned k = 0; k < threads; ++k) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0)
        return;
      while (!stop_.load(std::memory_order_relaxed)) relax();
    });
    clockid_t id;
    if (::pthread_getcpuclockid(threads_.back().native_handle(), &id) == 0)
      clocks_.push_back(id);
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

double KeepAwake::cpu_s() const {
  double s = 0.0;
  for (clockid_t id : clocks_) {
    timespec ts{};
    if (::clock_gettime(id, &ts) == 0)
      s += static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  return s;
}

}  // namespace perfbench
