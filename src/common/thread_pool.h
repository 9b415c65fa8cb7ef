// Fixed-size thread pool for client-side CPU work. Provider requests never
// run here: their latencies are virtual and gcsapi::AsyncBatch issues them
// on the calling thread. What does run here is the per-column compute of
// large stripes: a write's parity encode and CRCs, a read's fragment
// checks, gather and reconstruction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace hyrd::common {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Schedules `fn`; the returned future completes with its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for every i in [0, n) on the workers and the calling
  /// thread together; returns once every call has returned. Helpers that
  /// start after the work is gone exit at once, so the caller never waits
  /// on a queued task. Must not be called from a pool task.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// ThreadPool::for_each on `pool`, or a plain loop on the calling thread
/// when there is none.
inline void for_each(ThreadPool* pool, std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->for_each(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace hyrd::common
