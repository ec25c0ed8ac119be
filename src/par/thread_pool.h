// ecomp::par — a small fixed-size thread pool with a bounded task
// queue, the execution engine behind the parallel block pipeline in
// both directions, each an ordered window of block futures:
// SelectiveStreamEncoder compresses blocks on it (so the container
// bytes are identical to the serial path at any thread count), and
// SelectiveStreamDecoder inflates the blocks that have arrived on it
// (selective_decompress, and downloads at threads >= 2).
//
// Design notes:
//   * The queue is bounded (default 4x the worker count): submit()
//     blocks the producer instead of letting an encode outrun the
//     consumer by an unbounded number of buffered blocks. Tasks must
//     therefore never submit() to their own pool (documented deadlock).
//   * Obs-instrumented: "par.tasks" counts executed tasks,
//     "par.queue_depth" is a sliding-window histogram of the queue
//     backlog sampled at every push/pop (so p50/p99 backlog and not
//     just the last value survive to the STATS surface), and each task
//     body runs under an ECOMP_TRACE_SPAN("par.task") so pool activity
//     shows up on the wall-clock trace track. Every pool feeds these
//     process-wide series; none records its own size (a proxy reports
//     its connection pool under STATS ADMISSION).
//   * Exceptions: async() returns a std::future that rethrows whatever
//     the task threw — the reorder buffers in the compression stack
//     propagate worker failures to the caller in block order.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/bytes.h"

namespace ecomp::par {

/// std::thread::hardware_concurrency with a floor of 1 (the function is
/// allowed to return 0 when the hardware offers no hint).
unsigned default_threads();

class ThreadPool {
 public:
  /// `threads` workers (clamped to >= 1); `queue_capacity` 0 means
  /// 4 * threads.
  explicit ThreadPool(unsigned threads, std::size_t queue_capacity = 0);
  ~ThreadPool();  // drains the queue, then joins every worker
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue `fn`; blocks while the queue is at capacity. Throws Error
  /// after shutdown began. Never call from a task running on this pool.
  void submit(std::function<void()> fn);

  /// Non-blocking submit: returns false (and drops nothing on the
  /// caller) when the queue is at capacity or shutdown began. The
  /// admission-control path in net::ProxyServer uses this to reply
  /// BUSY instead of wedging its accept thread in submit().
  bool try_submit(std::function<void()> fn);

  /// submit() wrapped in a packaged task: the returned future yields
  /// the callable's result or rethrows its exception.
  template <class F>
  auto async(F&& f) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

 private:
  void worker();

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  std::size_t capacity_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ecomp::par
