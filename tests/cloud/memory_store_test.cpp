#include "cloud/memory_store.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hyrd::cloud {
namespace {

using common::bytes_of;
using common::StatusCode;

TEST(MemoryStore, CreateThenPutGet) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  ASSERT_TRUE(store.put("c", "k", bytes_of("v")).is_ok());
  auto got = store.get("c", "k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(common::to_string(got.value()), "v");
}

TEST(MemoryStore, DuplicateCreateFails) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  EXPECT_EQ(store.create("c").code(), StatusCode::kAlreadyExists);
}

TEST(MemoryStore, PutToMissingContainerFails) {
  MemoryStore store;
  EXPECT_EQ(store.put("nope", "k", bytes_of("v")).code(),
            StatusCode::kNotFound);
}

TEST(MemoryStore, GetMissingObjectFails) {
  MemoryStore store;
  store.create("c");
  EXPECT_EQ(store.get("c", "k").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.get("d", "k").status().code(), StatusCode::kNotFound);
}

TEST(MemoryStore, OverwriteUpdatesStoredBytes) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::Bytes(100, 1));
  EXPECT_EQ(store.stored_bytes(), 100u);
  store.put("c", "k", common::Bytes(40, 2));
  EXPECT_EQ(store.stored_bytes(), 40u);
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(MemoryStore, RemoveFreesBytes) {
  MemoryStore store;
  store.create("c");
  store.put("c", "a", common::Bytes(10, 0));
  store.put("c", "b", common::Bytes(20, 0));
  ASSERT_TRUE(store.remove("c", "a").is_ok());
  EXPECT_EQ(store.stored_bytes(), 20u);
  EXPECT_EQ(store.remove("c", "a").code(), StatusCode::kNotFound);
}

TEST(MemoryStore, ListReturnsSortedNames) {
  MemoryStore store;
  store.create("c");
  store.put("c", "zebra", bytes_of("1"));
  store.put("c", "apple", bytes_of("2"));
  auto names = store.list("c");
  ASSERT_TRUE(names.is_ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"apple", "zebra"}));
}

TEST(MemoryStore, ListMissingContainerFails) {
  MemoryStore store;
  EXPECT_FALSE(store.list("c").is_ok());
}

TEST(MemoryStore, ObjectSizePeek) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::Bytes(33, 0));
  EXPECT_EQ(store.object_size("c", "k"), std::optional<std::uint64_t>(33));
  EXPECT_EQ(store.object_size("c", "missing"), std::nullopt);
}

TEST(MemoryStore, WipeClearsEverything) {
  MemoryStore store;
  store.create("c");
  store.put("c", "k", common::Bytes(10, 0));
  store.wipe();
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.object_count(), 0u);
  EXPECT_FALSE(store.container_exists("c"));
}

TEST(MemoryStore, ConcurrentPutsAreConsistent) {
  MemoryStore store;
  store.create("c");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 100; ++i) {
        store.put("c",
                  std::string("t")
                      .append(std::to_string(t))
                      .append("-")
                      .append(std::to_string(i)),
                  common::Bytes(10, 0));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.object_count(), 800u);
  EXPECT_EQ(store.stored_bytes(), 8000u);
}


TEST(MemoryStore, AccountingAndListOrderHoldUnderChurn) {
  // Seeded put / overwrite / remove churn over several containers against
  // an ordered-map oracle: byte and object accounting, name-sorted
  // listings and wipe must agree with it at every checkpoint.
  MemoryStore store;
  const std::vector<std::string> containers = {"alpha", "beta", "gamma"};
  std::map<std::string, std::map<std::string, std::size_t>> oracle;
  for (const auto& c : containers) {
    ASSERT_TRUE(store.create(c).is_ok());
    oracle[c];
  }
  common::Xoshiro256 rng(77);
  const auto check = [&](std::size_t step) {
    std::uint64_t bytes = 0;
    std::uint64_t objects = 0;
    for (const auto& [c, objs] : oracle) {
      std::vector<std::string> want;
      for (const auto& [name, size] : objs) {
        want.push_back(name);
        bytes += size;
      }
      objects += objs.size();
      auto got = store.list(c);
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value(), want) << c << " at step " << step;
    }
    EXPECT_EQ(store.stored_bytes(), bytes) << "step " << step;
    EXPECT_EQ(store.object_count(), objects) << "step " << step;
  };
  for (std::size_t step = 0; step < 6'000; ++step) {
    const std::string& c = containers[rng.uniform_int(0, containers.size() - 1)];
    const std::string name =
        std::string("obj-").append(std::to_string(rng.uniform_int(0, 400)));
    auto& objs = oracle[c];
    if (rng.chance(0.6)) {
      const std::size_t size = rng.uniform_int(0, 2048);
      ASSERT_TRUE(store.put(c, name, common::Bytes(size, 1)).is_ok());
      objs[name] = size;
    } else {
      const bool present = objs.erase(name) > 0;
      EXPECT_EQ(store.remove(c, name).is_ok(), present) << "step " << step;
    }
    if (step % 500 == 0) check(step);
  }
  check(6'000);
  store.wipe();
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.object_count(), 0u);
  for (const auto& c : containers) EXPECT_FALSE(store.list(c).is_ok());
}

}  // namespace
}  // namespace hyrd::cloud
