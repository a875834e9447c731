// Fixed-size worker pool with a FIFO task queue and future-based results.
//
// The experiment harness runs independent, share-nothing experiments (each
// owns its network, RNG, and metrics registry), so a plain pool of N workers
// draining one queue is all the parallelism machinery the sweep benches need
// (`RunExperimentSuite`). Tasks may be submitted from any thread; results and
// exceptions propagate through the returned std::future.
//
// Destruction semantics: the destructor stops accepting new work, lets the
// workers drain every task already queued, and joins them — a submitted task
// is therefore always executed exactly once (its future never becomes a
// broken promise).
//
// ParallelChunks (below) is the data-parallel doorway: it fans one index
// range out over the pool in contiguous chunks and joins them.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace past {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains the queue, then joins all workers.
  ~ThreadPool();

  size_t size() const { return workers_.size(); }

  // Number of tasks accepted over the pool's lifetime.
  uint64_t submitted() const;

  // Enqueues `fn` and returns a future for its result. An exception thrown
  // by the task is captured and rethrown from future::get(). Throws
  // std::runtime_error when called after shutdown began (i.e. from a task
  // racing the destructor's stop flag).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only but std::function requires copyable
    // callables, so the task lives behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

 private:
  void Enqueue(std::function<void()> wrapped);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  uint64_t submitted_ = 0;
  std::vector<std::thread> workers_;
};

// Splits [0, n) into min(n, pool.size()) contiguous chunks of near-equal
// size, runs fn(begin, end) for each chunk on `pool`, and waits for all of
// them. Returns the per-chunk results in chunk (= index) order, or nothing
// when `fn` returns void; an exception thrown by a chunk is rethrown here,
// the first in chunk order, after every chunk has finished. Callers that
// write only to their own index range, or merge the returned results in
// order, get output independent of the pool size and of scheduling. Do not
// call it from a task running on `pool`: the chunks could wait behind it.
template <typename Fn>
auto ParallelChunks(ThreadPool& pool, size_t n, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, size_t, size_t>;
  const size_t chunks = std::min(n, pool.size());
  std::vector<std::future<Result>> pending;
  pending.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    pending.push_back(pool.Submit([&fn, begin, end] { return fn(begin, end); }));
  }
  // Wait for every chunk before rethrowing, so no task still references
  // `fn` or the caller's buffers when this returns.
  for (auto& f : pending) {
    f.wait();
  }
  if constexpr (std::is_void_v<Result>) {
    for (auto& f : pending) {
      f.get();
    }
  } else {
    std::vector<Result> results;
    results.reserve(chunks);
    for (auto& f : pending) {
      results.push_back(f.get());
    }
    return results;
  }
}

}  // namespace past

#endif  // SRC_COMMON_THREAD_POOL_H_
