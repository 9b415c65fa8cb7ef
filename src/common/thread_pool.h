// Fixed-size thread pool for client-side CPU work. Provider requests never
// run here: their latencies are virtual and gcsapi::AsyncBatch issues them
// on the calling thread. What does run here is the per-column compute of
// large stripes (erasure::Striper): a write's parity encode and CRCs, a
// read's fragment checks, gather and reconstruction, a rebuild.
//
// The pool's one entry point is for_each. Its job lives on the caller's
// stack: helpers claim it under the pool mutex, the caller withdraws the
// helper slots nobody claimed and waits only for the helpers that did, so
// a call allocates nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hyrd::common {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n) on the workers and the calling
  /// thread together; returns once every call has returned. If a call
  /// throws, no index is claimed after it, and the first exception is
  /// rethrown on the caller once every helper has left `fn`. Several
  /// threads may call at once. Must not be called from inside `fn`.
  template <typename F>
  void for_each(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    Job job;
    job.n = n;
    job.fn = &fn;
    job.call = [](const void* f, std::size_t i) {
      (*static_cast<Fn*>(const_cast<void*>(f)))(i);
    };
    run(job);
  }

 private:
  /// One for_each call, on its caller's stack. Every field but the index
  /// counter is guarded by mu_.
  struct Job {
    std::size_t n = 0;
    const void* fn = nullptr;
    void (*call)(const void*, std::size_t) = nullptr;
    std::atomic<std::size_t> next{0};  // next index to claim
    std::size_t open = 0;              // helper slots not yet claimed
    std::size_t active = 0;            // helpers inside drain()
    Job* queued_after = nullptr;       // the pool's FIFO of open jobs
    std::exception_ptr error;          // the first call that threw
    std::condition_variable idle;      // active reached 0
  };

  void run(Job& job);
  void drain(Job& job);
  void worker_loop();

  std::vector<std::thread> workers_;
  Job* queue_ = nullptr;  // jobs with open helper slots, oldest first
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// ThreadPool::for_each on `pool`, or a plain loop on the calling thread
/// when there is none.
template <typename F>
void for_each(ThreadPool* pool, std::size_t n, F&& fn) {
  if (pool != nullptr) {
    pool->for_each(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace hyrd::common
