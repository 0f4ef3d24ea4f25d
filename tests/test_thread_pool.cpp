#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace arcadia {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForJoinsBeforeRethrowing) {
  // Regression: a worker throwing early must not let parallel_for unwind
  // while other workers still reference the caller's callable and captures.
  // `live` goes out of scope right after the EXPECT_THROW; if any worker
  // were still running, the final counter check (and ASan) would catch it.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  {
    std::atomic<bool> live{true};
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t i) {
                            ASSERT_TRUE(live.load());
                            started++;
                            if (i == 0) throw std::runtime_error("early boom");
                            finished++;
                          }),
        std::runtime_error);
    live.store(false);
  }
  // Nothing may run after parallel_for returned: every helper was joined,
  // so the counters are final and no worker can observe live == false.
  EXPECT_GE(started.load(), 1);
  EXPECT_LE(finished.load(), 63);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexDeterministically) {
  // When several indices throw, the exception from the lowest one must
  // win, run after run, whichever thread threw first.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::string what;
    try {
      pool.parallel_for(16, [](std::size_t i) {
        throw std::runtime_error("index@" + std::to_string(i));
      });
      FAIL() << "parallel_for did not throw";
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "index@0");
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexWhenSomeThrow) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.parallel_for(hits.size(), [&](std::size_t i) {
      hits[i]++;
      if (i == 5 || i == 40) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_for did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCallingThreadIsOneOfSizeThreads) {
  // A one-thread pool runs the whole loop on the caller: its worker (kept
  // for submit) is never asked to help.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.parallel_for(ran.size(),
                    [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ParallelForRunsOnAtMostSizeThreads) {
  // size() counts the calling thread: a 3-way pool has two workers, so a
  // loop long enough to occupy every thread still sees at most three.
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard<std::mutex> lock(mutex);
    ran_on.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ran_on.size(), 3u);
}

TEST(ThreadPoolTest, ParallelForCoversUnevenRanges) {
  ThreadPool pool(3);
  for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 100u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ManyTasksDrain) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&count] { count++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace arcadia
