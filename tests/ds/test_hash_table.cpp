// HMHT structure tests.
#include <gtest/gtest.h>

#include "ds/hash_table.hpp"
#include "runtime/rng.hpp"
#include "smr/ebr.hpp"
#include "smr/hazard_domain.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

TEST(HashTable, BucketCountFollowsLoadFactor) {
  HashTable<smr::EbrDomain> h(600, 6.0);
  EXPECT_EQ(h.bucket_count(), 100u);
  HashTable<smr::EbrDomain> h1(5, 6.0);
  EXPECT_EQ(h1.bucket_count(), 1u);  // never zero buckets
}

TEST(HashTable, BucketCountRoundsUpNotDown) {
  // Regression: capacity / load_factor used to truncate, so capacity 7
  // at load factor 6 got ONE bucket (a list) instead of two, and any
  // non-multiple capacity ran systematically over its load factor.
  HashTable<smr::EbrDomain> h7(7, 6.0);
  EXPECT_EQ(h7.bucket_count(), 2u);
  HashTable<smr::EbrDomain> h64(64, 6.0);
  EXPECT_EQ(h64.bucket_count(), 11u);  // ceil(64/6), not 10
}

TEST(HashTable, BasicSetSemantics) {
  HashTable<core::HazardPtrPopDomain> h(1024);
  for (uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(h.insert(k));
  for (uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(h.contains(k));
  for (uint64_t k = 500; k < 600; ++k) EXPECT_FALSE(h.contains(k));
  EXPECT_EQ(h.size_slow(), 500u);
  for (uint64_t k = 0; k < 500; k += 2) EXPECT_TRUE(h.erase(k));
  EXPECT_EQ(h.size_slow(), 250u);
}

TEST(HashTable, CollidingKeysShareBucketCorrectly) {
  HashTable<smr::EbrDomain> h(6, 6.0);  // exactly one bucket: all collide
  ASSERT_EQ(h.bucket_count(), 1u);
  for (uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(h.insert(k));
  EXPECT_EQ(h.size_slow(), 64u);
  for (uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(h.contains(k));
  for (uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(h.erase(k));
  EXPECT_EQ(h.size_slow(), 0u);
}

TEST(HashTable, SingleSharedDomainAcrossBuckets) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  HashTable<core::HazardPtrPopDomain> h(4096, 6.0, cfg);
  for (int round = 0; round < 10; ++round) {
    for (uint64_t k = 0; k < 256; ++k) h.insert(k);
    for (uint64_t k = 0; k < 256; ++k) h.erase(k);
  }
  const auto st = h.domain().stats();
  // Retires from all buckets funnel into one domain.
  EXPECT_GE(st.retired, 2560u);
  EXPECT_GT(st.freed, 0u);
  h.domain().detach();
}

TEST(HashTable, ConcurrentMixedOps) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 16;
  HashTable<core::HazardPtrPopDomain> h(2048, 6.0, cfg);
  std::atomic<int64_t> net{0};
  test::run_threads(4, [&](int t) {
    runtime::Xoshiro256 rng(55 + t);
    for (int i = 0; i < 8000; ++i) {
      const uint64_t k = rng.next_below(2048);
      if (rng.percent(50)) {
        if (h.insert(k)) net.fetch_add(1);
      } else {
        if (h.erase(k)) net.fetch_sub(1);
      }
    }
    h.domain().detach();
  });
  EXPECT_EQ(h.size_slow(), static_cast<uint64_t>(net.load()));
}

}  // namespace
}  // namespace pop::ds
