// Zero-copy store semantics, the uint64 range-overflow regressions, and a
// sanitizer-targeted concurrency stress over the sharded MemoryStore.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cloud/memory_store.h"
#include "cloud/provider.h"
#include "common/copy_meter.h"
#include "common/rng.h"

namespace hyrd::cloud {
namespace {

constexpr std::uint64_t kNearMax = ~std::uint64_t{0} - 7;

TEST(MemoryStoreDatabus, PutOfOwningBufferIsZeroCopy) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  common::Buffer payload = common::Buffer::from(common::patterned(4096, 1));
  const std::uint8_t* raw = payload.data();
  common::reset_copied_bytes();
  ASSERT_TRUE(store.put("c", "o", payload).is_ok());
  EXPECT_EQ(common::copied_bytes(), 0u);  // kept by refbump, not memcpy

  auto got = store.get("c", "o");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().data(), raw);  // same block all the way through
  EXPECT_EQ(common::copied_bytes(), 0u);
}

TEST(MemoryStoreDatabus, PutOfBorrowedSpanIsCopiedForDurability) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  common::Bytes caller = common::patterned(1024, 2);
  common::reset_copied_bytes();
  ASSERT_TRUE(store.put("c", "o", common::ByteSpan(caller)).is_ok());
  EXPECT_EQ(common::copied_bytes(), 1024u);
  caller[0] ^= 0xFF;  // mutating caller memory must not reach the store
  auto got = store.get("c", "o");
  ASSERT_TRUE(got.is_ok());
  EXPECT_NE(got.value()[0], caller[0]);
}

TEST(MemoryStoreDatabus, GetRangeIsSliceOfStoredBlock) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  common::Buffer payload = common::Buffer::from(common::patterned(512, 3));
  ASSERT_TRUE(store.put("c", "o", payload).is_ok());
  common::reset_copied_bytes();
  auto r = store.get_range("c", "o", 100, 50);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(common::copied_bytes(), 0u);
  EXPECT_EQ(r.value().data(), payload.data() + 100);
}

TEST(MemoryStoreDatabus, PutRangeForksSharedBlock) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  ASSERT_TRUE(
      store.put("c", "o", common::Buffer::from(common::patterned(64, 4)))
          .is_ok());
  auto before = store.get("c", "o");  // live reader holds the old block
  ASSERT_TRUE(before.is_ok());
  const std::uint8_t old_byte = before.value()[10];

  const common::Bytes patch(4, static_cast<std::uint8_t>(old_byte ^ 0x5A));
  ASSERT_TRUE(store.put_range("c", "o", 10, patch).is_ok());

  EXPECT_EQ(before.value()[10], old_byte);  // snapshot untouched (COW)
  auto after = store.get("c", "o");
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value()[10], old_byte ^ 0x5A);
}

TEST(MemoryStoreDatabus, GetRangeRejectsOverflowingOffsets) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  ASSERT_TRUE(
      store.put("c", "o", common::Buffer::from(common::patterned(100, 5)))
          .is_ok());
  // offset + length wraps around 2^64 to a small value; the naive
  // `offset + length > size` guard would admit it and read out of bounds.
  EXPECT_FALSE(store.get_range("c", "o", kNearMax, 16).is_ok());
  EXPECT_FALSE(store.get_range("c", "o", 16, kNearMax).is_ok());
  EXPECT_FALSE(store.get_range("c", "o", kNearMax, kNearMax).is_ok());
  EXPECT_FALSE(store.get_range("c", "o", 101, 0).is_ok());
  EXPECT_TRUE(store.get_range("c", "o", 100, 0).is_ok());
  EXPECT_TRUE(store.get_range("c", "o", 0, 100).is_ok());
}

TEST(MemoryStoreDatabus, PutRangeRejectsOverflowingOffsets) {
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  ASSERT_TRUE(
      store.put("c", "o", common::Buffer::from(common::patterned(100, 6)))
          .is_ok());
  const common::Bytes patch(16, std::uint8_t{0xEE});
  EXPECT_FALSE(store.put_range("c", "o", kNearMax, patch).is_ok());
  EXPECT_FALSE(store.put_range("c", "o", 96, patch).is_ok());
  EXPECT_TRUE(store.put_range("c", "o", 84, patch).is_ok());
  // The rejected writes must not have altered the object.
  auto got = store.get("c", "o");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 100u);
}

TEST(MemoryStoreDatabus, ProviderRangePathsRejectOverflow) {
  // The same guard must hold through SimProvider's REST-facing range ops.
  ProviderConfig cfg;
  cfg.name = "p";
  SimProvider provider(cfg, 7);
  ASSERT_TRUE(provider.create("c").status.is_ok());
  ASSERT_TRUE(provider
                  .put({"c", "o"},
                       common::Buffer::from(common::patterned(256, 7)))
                  .status.is_ok());
  EXPECT_FALSE(provider.get_range({"c", "o"}, kNearMax, 32).status.is_ok());
  EXPECT_FALSE(provider.get_range({"c", "o"}, 32, kNearMax).status.is_ok());
  const common::Bytes patch(32, std::uint8_t{0x11});
  EXPECT_FALSE(
      provider.put_range({"c", "o"}, kNearMax, common::Buffer::copy(patch))
          .status.is_ok());
  EXPECT_TRUE(
      provider.put_range({"c", "o"}, 0, common::Buffer::copy(patch))
          .status.is_ok());
}

TEST(MemoryStoreDatabus, StoredBytesCountsLogicalBytes) {
  // Billing model: N fragments slicing one arena still bill N * size —
  // logical bytes, independent of physical sharing.
  MemoryStore store;
  ASSERT_TRUE(store.create("c").is_ok());
  common::Buffer arena = common::Buffer::from(common::patterned(300, 8));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.put("c", std::string("frag").append(std::to_string(i)),
                          arena.slice(static_cast<std::size_t>(i) * 100, 100))
                    .is_ok());
  }
  EXPECT_EQ(store.stored_bytes(), 300u);
  ASSERT_TRUE(store.remove("c", "frag1").is_ok());
  EXPECT_EQ(store.stored_bytes(), 200u);
}

TEST(MemoryStoreDatabus, ConcurrentSharedKeyChurn) {
  // TSan target: concurrent put/get/get_range/remove/wipe over shared keys
  // and shared blocks. Correctness bar: no data race, and every successful
  // get returns a self-consistent patterned payload.
  MemoryStore store;
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(
        store.create(std::string("c").append(std::to_string(c))).is_ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 4; ++t) {  // writers: shared keys across threads
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 400; ++i) {
        const std::string container =
            std::string("c").append(std::to_string(i % 4));
        const std::string name =
            std::string("k").append(std::to_string((i + t) % 8));
        const std::uint64_t seed = static_cast<std::uint64_t>((i + t) % 8);
        common::Buffer payload =
            common::Buffer::from(common::patterned(1024, seed));
        (void)store.put(container, name, payload.slice(0, 1024));
        (void)store.put_range(container, name, 0,
                              payload.span().first(64));
      }
    });
  }
  for (int t = 0; t < 4; ++t) {  // readers
    threads.emplace_back([&store, &stop, &bad_reads, t] {
      while (!stop.load()) {
        for (int i = 0; i < 8; ++i) {
          const std::string container =
              std::string("c").append(std::to_string((i + t) % 4));
          const std::string name = std::string("k").append(std::to_string(i));
          auto got = store.get(container, name);
          if (got.is_ok() && got.value().size() != 1024) ++bad_reads;
          auto ranged = store.get_range(container, name, 512, 256);
          if (ranged.is_ok() && ranged.value().size() != 256) ++bad_reads;
        }
      }
    });
  }
  threads.emplace_back([&store, &stop] {  // remover + occasional wipe
    int n = 0;
    while (!stop.load()) {
      (void)store.remove(std::string("c").append(std::to_string(n % 4)),
                         std::string("k").append(std::to_string(n % 8)));
      if (++n % 97 == 0) store.wipe();
    }
  });

  for (int t = 0; t < 4; ++t) threads[static_cast<std::size_t>(t)].join();
  stop = true;
  for (std::size_t t = 4; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(bad_reads.load(), 0u);
}

}  // namespace
}  // namespace hyrd::cloud
