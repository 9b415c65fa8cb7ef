// A for_each call that throws must reach its caller, after every helper has
// left the callback (the callback's frame is the caller's), without hanging
// the call or killing the worker that ran it: the pool stays fully usable
// afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"

namespace hyrd::common {
namespace {

TEST(ThreadPoolEdge, ThrowingTaskRethrowsWithoutDeadlock) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    // Index 40 throws, on whichever thread claims it; then every index
    // throws, so the caller's own first call throws too.
    for (const bool all_throw : {false, true}) {
      std::atomic<int> inside{0};
      bool caught = false;
      try {
        pool.for_each(64, [&](std::size_t i) {
          ++inside;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          --inside;
          if (all_throw || i == 40) {
            throw std::runtime_error("boom");
          }
        });
      } catch (const std::runtime_error&) {
        caught = true;
      }
      EXPECT_TRUE(caught) << "round " << round;
      // Rethrown only after every helper left the callback.
      EXPECT_EQ(inside.load(), 0) << "round " << round;
    }
  }
  std::atomic<int> hits{0};
  pool.for_each(64, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 64);
}

}  // namespace
}  // namespace hyrd::common
