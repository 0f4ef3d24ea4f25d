#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace arcadia {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {
  const std::size_t workers = std::max<std::size_t>(1, threads_ - 1);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      // Loop form (no predicate lambda): the guarded reads stay in this
      // function's body where the analysis can see the lock is held.
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // only reachable when stopping
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  // Indices go out one at a time, so uneven work spreads over every thread.
  // State lives on the heap: a helper woken after every index was claimed
  // never touches `fn`, so the caller waits only for indices in flight.
  struct Loop {
    explicit Loop(std::size_t n) : errors(n) {}
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::vector<std::exception_ptr> errors;  // slot i: only index i writes
    util::Mutex mutex;
    util::CondVar all_done;
  };
  auto loop = std::make_shared<Loop>(n);
  auto drain = [loop, n, &fn] {
    for (std::size_t i = loop->next++; i < n; i = loop->next++) {
      try {
        fn(i);
      } catch (...) {
        loop->errors[i] = std::current_exception();
      }
      if (++loop->finished == n) {
        util::MutexLock lock(loop->mutex);  // no lost wake-up
        loop->all_done.notify_one();
      }
    }
  };
  const std::size_t helpers = n == 0 ? 0 : std::min(size(), n) - 1;
  {
    util::MutexLock lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) queue_.emplace_back(drain);
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  drain();
  {
    util::MutexLock lock(loop->mutex);
    while (loop->finished.load() < n) loop->all_done.wait(loop->mutex);
  }
  // Out of `loop` first: a late helper may drop the last reference to it,
  // and must not free an exception this thread is still reading.
  const std::vector<std::exception_ptr> errors = std::move(loop->errors);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace arcadia
