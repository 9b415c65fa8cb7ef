#include "common/robin_hood.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace hyrd::common {
namespace {

TEST(RobinHood, StableKeyHashNeverReturnsZero) {
  // 0 is the table's empty-slot sentinel; the hash must avoid it.
  EXPECT_NE(stable_key_hash(""), 0u);
  EXPECT_NE(stable_key_hash("/"), 0u);
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(stable_key_hash("k" + std::to_string(rng())), 0u);
  }
}

}  // namespace
}  // namespace hyrd::common
