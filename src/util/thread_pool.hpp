// Fixed-size thread pool for embarrassingly-parallel experiment work:
// running control and repair experiments concurrently, parameter sweeps in
// the ablation benches, and property-test replications — plus the worker
// pool behind sim::SimCoordinator's windows and fleet barrier sweep
// (DESIGN.md §3c, §9); under src/ only those two construct one (arclint
// `one-pool`). Parallelism is always deterministic by construction: either
// whole experiments (one simulator per task, no sharing) or lane-guarded
// per-shard work whose cross-shard effects merge in shard order.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace arcadia {

class ThreadPool {
 public:
  /// A pool for `threads`-way loops (0 = hardware concurrency): the
  /// calling thread plus threads - 1 workers, and at least one worker so
  /// that submit() always runs.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a parallel_for runs on, the calling thread included.
  std::size_t size() const { return threads_; }

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      util::MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for every i in [0, n) on size() threads — the calling
  /// thread and up to size() - 1 workers, indices handed out one at a time
  /// — and wait for all of them. Every index runs even when some throw;
  /// then the exception of the lowest throwing index is rethrown (a
  /// deterministic choice). No call of `fn` runs after this returns.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::size_t threads_;
  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<std::function<void()>> queue_ ARC_GUARDED_BY(mutex_);
  bool stopping_ ARC_GUARDED_BY(mutex_) = false;
};

}  // namespace arcadia
