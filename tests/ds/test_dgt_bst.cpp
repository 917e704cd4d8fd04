// DGT external BST structure tests.
#include <gtest/gtest.h>

#include "core/epoch_pop.hpp"
#include "ds/dgt_bst.hpp"
#include "runtime/rng.hpp"
#include "smr/hazard_domain.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

TEST(DgtBst, StartsEmpty) {
  DgtBst<smr::HpDomain> t;
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_FALSE(t.contains(5));
  EXPECT_FALSE(t.erase(5));
}

TEST(DgtBst, InsertContainsEraseSequence) {
  DgtBst<smr::HpDomain> t;
  const uint64_t keys[] = {50, 25, 75, 10, 30, 60, 90, 5, 15, 27, 35};
  for (uint64_t k : keys) EXPECT_TRUE(t.insert(k));
  for (uint64_t k : keys) EXPECT_TRUE(t.contains(k));
  EXPECT_EQ(t.size_slow(), std::size(keys));
  for (uint64_t k : keys) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size_slow(), 0u);
  for (uint64_t k : keys) EXPECT_FALSE(t.contains(k));
}

TEST(DgtBst, DeleteRetiresLeafAndParent) {
  DgtBst<smr::HpDomain> t;
  t.insert(10);
  t.insert(20);
  const auto before = t.domain().stats().retired;
  EXPECT_TRUE(t.erase(10));
  const auto after = t.domain().stats().retired;
  EXPECT_EQ(after - before, 2u) << "external BST must retire leaf + parent";
}

TEST(DgtBst, AscendingAndDescendingInsertions) {
  DgtBst<smr::HpDomain> t;  // degenerate shapes must still work
  for (uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(t.insert(k));
  EXPECT_EQ(t.size_slow(), 200u);
  DgtBst<smr::HpDomain> t2;
  for (uint64_t k = 200; k > 0; --k) EXPECT_TRUE(t2.insert(k));
  EXPECT_EQ(t2.size_slow(), 200u);
}

TEST(DgtBst, EmptyThenRefill) {
  DgtBst<core::EpochPopDomain> t;
  for (int round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 32; ++k) EXPECT_TRUE(t.insert(k));
    for (uint64_t k = 0; k < 32; ++k) EXPECT_TRUE(t.erase(k));
    EXPECT_EQ(t.size_slow(), 0u);
  }
  t.domain().detach();
}

TEST(DgtBst, ConcurrentMixedOpsKeepCount) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 16;
  DgtBst<core::EpochPopDomain> t(cfg);
  std::atomic<int64_t> net{0};
  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(11 + w);
    for (int i = 0; i < 6000; ++i) {
      const uint64_t k = rng.next_below(512);
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

TEST(DgtBst, ConcurrentSingleKeyHammer) {
  DgtBst<smr::HpDomain> t;
  std::atomic<uint64_t> ins{0}, del{0};
  test::run_threads(4, [&](int w) {
    for (int i = 0; i < 3000; ++i) {
      if (w % 2 == 0) {
        if (t.insert(7)) ins.fetch_add(1);
      } else {
        if (t.erase(7)) del.fetch_add(1);
      }
    }
    t.domain().detach();
  });
  const uint64_t net = ins.load() - del.load();
  EXPECT_LE(net, 1u);
  EXPECT_EQ(t.size_slow(), net);
}

}  // namespace
}  // namespace pop::ds
