// Fixed-size thread pool for client-side CPU work. Provider requests never
// run here: their latencies are virtual and gcsapi::AsyncBatch issues them
// on the calling thread. What does run here is the compute a large stripe
// write needs (parity encode in chunks, fragment CRCs), overlapped with
// the caller's own fragment uploads.
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

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Indices are dispatched in contiguous chunks (a few per worker), so
  /// per-index scheduling overhead is amortized; fn must therefore not
  /// assume each index runs as its own task. n == 0 returns immediately.
  /// If fn throws, every chunk still runs to completion (the pool is never
  /// deadlocked or left running detached work) and the first exception is
  /// rethrown to the caller; later indices may or may not have executed.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace hyrd::common
