// Tests for the fixed-size worker pool behind RunExperimentSuite.
#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace past {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(pool.submitted(), 100u);
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ResultsIndependentOfExecutionOrder) {
  // Each task computes from its own inputs only; whatever order the workers
  // pick tasks up in, the futures must deliver each task's own result.
  for (size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    std::vector<std::future<uint64_t>> futures;
    for (uint64_t i = 0; i < 64; ++i) {
      futures.push_back(pool.Submit([i] {
        uint64_t acc = i;
        for (int step = 0; step < 1000; ++step) {
          acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        return acc;
      }));
    }
    std::vector<uint64_t> results;
    for (auto& f : futures) {
      results.push_back(f.get());
    }
    // Compare against the same computation run serially.
    for (uint64_t i = 0; i < 64; ++i) {
      uint64_t acc = i;
      for (int step = 0; step < 1000; ++step) {
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      EXPECT_EQ(results[static_cast<size_t>(i)], acc) << "task " << i << " workers " << workers;
    }
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  std::future<int> bad = pool.Submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  std::future<int> good = pool.Submit([] { return 5; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not take the worker down with it.
  EXPECT_EQ(good.get(), 5);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  // Queue far more tasks than workers and destroy the pool immediately: the
  // destructor must run every queued task (futures would otherwise throw
  // broken_promise).
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1, std::memory_order_relaxed);
      }));
    }
  }
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, ParallelChunksTilesTheRangeInOrder) {
  for (size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    for (size_t n : {0u, 1u, 2u, 7u, 100u}) {
      // Value-returning form: concatenating the per-chunk results in order
      // must reproduce [0, n) exactly once, with no empty chunk.
      std::vector<std::vector<size_t>> chunks =
          ParallelChunks(pool, n, [](size_t begin, size_t end) {
            std::vector<size_t> out;
            for (size_t i = begin; i < end; ++i) {
              out.push_back(i);
            }
            return out;
          });
      EXPECT_EQ(chunks.size(), std::min(n, workers)) << "n " << n << " workers " << workers;
      std::vector<size_t> joined;
      for (const std::vector<size_t>& chunk : chunks) {
        EXPECT_FALSE(chunk.empty());
        joined.insert(joined.end(), chunk.begin(), chunk.end());
      }
      std::vector<size_t> expected(n);
      std::iota(expected.begin(), expected.end(), size_t{0});
      EXPECT_EQ(joined, expected) << "n " << n << " workers " << workers;

      // Void form: each index is written by exactly one chunk.
      std::vector<int> hits(n, 0);
      ParallelChunks(pool, n, [&hits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          ++hits[i];
        }
      });
      EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), static_cast<ptrdiff_t>(n));
    }
  }
}

TEST(ThreadPoolTest, ParallelChunksRethrowsAfterAllChunksFinish) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(ParallelChunks(pool, 4,
                              [&finished](size_t begin, size_t) {
                                if (begin == 0) {
                                  throw std::runtime_error("chunk failed");
                                }
                                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                                finished.fetch_add(1);
                              }),
               std::runtime_error);
  // The throw surfaced only once the slower chunks were done.
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPoolTest, SubmitDuringShutdownThrows) {
  // A task that resubmits while the destructor is draining must get the
  // documented runtime_error instead of deadlocking the join. The task
  // signals that it started, the main thread enters the destructor, and the
  // task then waits long enough for stopping_ to be set before resubmitting.
  std::promise<void> started;
  std::future<void> started_future = started.get_future();
  std::atomic<bool> threw{false};
  {
    ThreadPool pool(1);
    pool.Submit([&pool, &started, &threw] {
      started.set_value();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      try {
        pool.Submit([] {});
      } catch (const std::runtime_error&) {
        threw.store(true);
      }
    });
    started_future.wait();
  }  // destructor runs while the task sleeps
  EXPECT_TRUE(threw.load());
}

}  // namespace
}  // namespace past
