// A task that throws must reach its caller through the future, without
// killing the worker that ran it: the pool stays fully usable afterwards.
#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"

namespace hyrd::common {
namespace {

TEST(ThreadPoolEdge, ThrowingTaskRethrowsWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([i] {
      if (i == 13) throw std::runtime_error("boom 13");
    }));
  }
  for (int i = 0; i < 64; ++i) {
    if (i == 13) {
      EXPECT_THROW(futs[i].get(), std::runtime_error);
    } else {
      futs[i].get();
    }
  }
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

}  // namespace
}  // namespace hyrd::common
