#include "par/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ecomp::par {

unsigned default_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads, std::size_t queue_capacity) {
  const unsigned n = std::max(1u, threads);
  capacity_ = queue_capacity ? queue_capacity : 4 * static_cast<std::size_t>(n);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  if (!fn) throw Error("ThreadPool: null task");
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return stopping_ || queue_.size() < capacity_; });
    if (stopping_) throw Error("ThreadPool: submit after shutdown");
    queue_.push_back(std::move(fn));
    ECOMP_SLIDING_OBSERVE("par.queue_depth", queue_.size());
  }
  not_empty_.notify_one();
}

bool ThreadPool::try_submit(std::function<void()> fn) {
  if (!fn) throw Error("ThreadPool: null task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(fn));
    ECOMP_SLIDING_OBSERVE("par.queue_depth", queue_.size());
  }
  not_empty_.notify_one();
  return true;
}

void ThreadPool::worker() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ECOMP_SLIDING_OBSERVE("par.queue_depth", queue_.size());
    }
    not_full_.notify_one();
    {
      ECOMP_TRACE_SPAN("par.task", "par");
      task();  // packaged_task captures exceptions into its future
    }
    ECOMP_COUNT("par.tasks");
  }
}

}  // namespace ecomp::par
