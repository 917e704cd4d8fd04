// (a,b)-tree structure tests: splits, root growth, COW leaves.
#include <gtest/gtest.h>

#include "ds/ab_tree.hpp"
#include "runtime/rng.hpp"
#include "smr/ebr.hpp"
#include "smr/hazard_domain.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

TEST(AbTree, StartsEmpty) {
  AbTree<smr::HpDomain> t;
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_FALSE(t.contains(1));
  EXPECT_FALSE(t.erase(1));
}

TEST(AbTree, FillsOneLeafWithoutSplit) {
  AbTree<smr::HpDomain> t;
  for (uint64_t k = 0; k < AbTree<smr::HpDomain>::kMaxKeys; ++k) {
    EXPECT_TRUE(t.insert(k));
  }
  EXPECT_EQ(t.size_slow(),
            static_cast<uint64_t>(AbTree<smr::HpDomain>::kMaxKeys));
}

TEST(AbTree, LeafSplitPreservesAllKeys) {
  AbTree<smr::HpDomain> t;
  constexpr uint64_t kN = 3 * AbTree<smr::HpDomain>::kMaxKeys;
  for (uint64_t k = 0; k < kN; ++k) EXPECT_TRUE(t.insert(k));
  EXPECT_EQ(t.size_slow(), kN);
  for (uint64_t k = 0; k < kN; ++k) EXPECT_TRUE(t.contains(k));
}

TEST(AbTree, DeepTreeFromSequentialInserts) {
  AbTree<smr::HpDomain> t;
  constexpr uint64_t kN = 5000;  // forces multiple levels of splits
  for (uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(t.insert(k));
  EXPECT_EQ(t.size_slow(), kN);
  for (uint64_t k = 0; k < kN; k += 97) EXPECT_TRUE(t.contains(k));
  EXPECT_FALSE(t.contains(kN + 1));
}

TEST(AbTree, RandomOrderInsertsAndLookups) {
  AbTree<smr::HpDomain> t;
  runtime::Xoshiro256 rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.next();
    if (t.insert(k)) keys.push_back(k);
  }
  EXPECT_EQ(t.size_slow(), keys.size());
  for (uint64_t k : keys) EXPECT_TRUE(t.contains(k));
}

TEST(AbTree, EraseShrinksLeaves) {
  AbTree<smr::HpDomain> t;
  for (uint64_t k = 0; k < 100; ++k) t.insert(k);
  for (uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size_slow(), 50u);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(t.contains(k), k % 2 == 1);
  }
}

TEST(AbTree, EveryUpdateRetiresAtLeastOneNode) {
  AbTree<smr::HpDomain> t;
  t.insert(1);
  const auto before = t.domain().stats().retired;
  t.insert(2);
  t.erase(1);
  const auto after = t.domain().stats().retired;
  EXPECT_GE(after - before, 2u) << "COW leaves must retire per update";
}

TEST(AbTree, EmptyLeavesAreTolerated) {
  AbTree<smr::HpDomain> t;
  for (uint64_t k = 0; k < 64; ++k) t.insert(k);
  for (uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size_slow(), 0u);
  // Reinsert into the (now sparse) structure.
  for (uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(t.insert(k));
  EXPECT_EQ(t.size_slow(), 64u);
}

TEST(AbTree, ConcurrentDisjointRangesKeepAllKeys) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 32;
  AbTree<smr::EbrDomain> t(cfg);
  constexpr int kThreads = 4;
  constexpr uint64_t kPer = 800;
  test::run_threads(kThreads, [&](int w) {
    for (uint64_t i = 0; i < kPer; ++i) {
      ASSERT_TRUE(t.insert(static_cast<uint64_t>(w) * kPer + i));
    }
    t.domain().detach();
  });
  EXPECT_EQ(t.size_slow(), kThreads * kPer);
  for (uint64_t k = 0; k < kThreads * kPer; k += 13) {
    EXPECT_TRUE(t.contains(k));
  }
}

TEST(AbTree, ConcurrentMixedOpsKeepCount) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 32;
  AbTree<core::HazardPtrPopDomain> t(cfg);
  std::atomic<int64_t> net{0};
  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(17 + w);
    for (int i = 0; i < 6000; ++i) {
      const uint64_t k = rng.next_below(1024);
      if (rng.percent(50)) {
        if (t.insert(k)) net.fetch_add(1);
      } else {
        if (t.erase(k)) net.fetch_sub(1);
      }
    }
    t.domain().detach();
  });
  EXPECT_EQ(t.size_slow(), static_cast<uint64_t>(net.load()));
}

}  // namespace
}  // namespace pop::ds
