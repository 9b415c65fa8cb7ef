#include "common/thread_pool.h"

#include <algorithm>

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

void ThreadPool::run(Job& job) {
  const std::size_t helpers =
      job.n > 1 ? std::min(job.n - 1, workers_.size()) : 0;
  if (helpers > 0) {
    std::lock_guard lock(mu_);
    job.open = helpers;
    Job** tail = &queue_;
    while (*tail != nullptr) tail = &(*tail)->queued_after;
    *tail = &job;
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  drain(job);

  std::unique_lock lock(mu_);
  if (job.open > 0) {  // withdraw the slots no helper claimed
    Job** link = &queue_;
    while (*link != &job) link = &(*link)->queued_after;
    *link = job.queued_after;
  }
  job.idle.wait(lock, [&] { return job.active == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::drain(Job& job) {
  for (std::size_t i; (i = job.next.fetch_add(1)) < job.n;) {
    try {
      job.call(job.fn, i);
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!job.error) job.error = std::current_exception();
      job.next.store(job.n);  // claim nothing more
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || queue_ != nullptr; });
    if (queue_ == nullptr) return;
    Job& job = *queue_;
    if (--job.open == 0) queue_ = job.queued_after;
    ++job.active;
    lock.unlock();
    drain(job);
    lock.lock();
    // Notified under the lock: the caller may return, and its job leave
    // the stack, as soon as it sees active reach 0.
    if (--job.active == 0) job.idle.notify_one();
  }
}

}  // namespace hyrd::common
