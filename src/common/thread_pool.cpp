#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace hyrd::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  // Shared so a helper dequeued after the caller returned still finds live
  // counters (it claims nothing and never touches fn).
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->fn = &fn;
  const auto drain = [](State& s) {
    for (std::size_t i; (i = s.next.fetch_add(1)) < s.n;) {
      (*s.fn)(i);
      if (s.done.fetch_add(1) + 1 == s.n) {
        std::lock_guard lock(s.mu);
        s.cv.notify_all();
      }
    }
  };
  const std::size_t helpers = std::min(n - 1, workers_.size());
  for (std::size_t h = 0; h < helpers; ++h) {
    (void)submit([state, drain] { drain(*state); });
  }
  drain(*state);
  std::unique_lock lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() == n; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace hyrd::common
