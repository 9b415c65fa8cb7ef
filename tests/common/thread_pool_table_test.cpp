#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"

namespace hyrd::common {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroThreadRequestStillWorks) {
  ThreadPool pool(0);  // clamped to 1
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 1000; ++i) {
    futs.push_back(pool.submit([&count] { count++; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, SubmitStressFromManyExternalThreads) {
  // Several caller threads submitting to one shared pool, each waiting on
  // its own futures: every caller must see each of its own tasks run
  // exactly once. This is the shape of concurrent stripe writers sharing
  // one session pool for their encode and CRC tasks.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kRounds = 25;
  constexpr std::size_t kTasks = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kTasks);
        std::vector<std::future<void>> futs;
        futs.reserve(kTasks);
        for (std::size_t i = 0; i < kTasks; ++i) {
          futs.push_back(pool.submit([&hits, i] { hits[i]++; }));
        }
        for (auto& f : futs) f.get();
        for (std::size_t i = 0; i < kTasks; ++i) {
          if (hits[i].load() != 1) failures++;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit([&inside, &peak] {
      const int now = ++inside;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --inside;
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_GT(peak.load(), 1);
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer-name"), std::string::npos);
  // Separator, header, separator, two rows, separator.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| x"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  EXPECT_EQ(t.render_csv(),
            "a,b\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n");
}

TEST(Table, CsvPadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.render_csv(), "a,b,c\nx,,\n");
}

}  // namespace
}  // namespace hyrd::common
