// HML-specific structure tests (direct template use, no factory).
#include <gtest/gtest.h>

#include "ds/hm_list.hpp"
#include "runtime/rng.hpp"
#include "smr/ebr.hpp"
#include "smr/hazard_domain.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

TEST(HmList, StartsEmpty) {
  HmList<smr::HpDomain> l;
  EXPECT_EQ(l.size_slow(), 0u);
  EXPECT_FALSE(l.contains(1));
  EXPECT_FALSE(l.erase(1));
}

TEST(HmList, KeysStaySortedAndUnique) {
  HmList<smr::HpDomain> l;
  const uint64_t keys[] = {5, 3, 9, 1, 7, 2, 8, 4, 6, 0};
  for (uint64_t k : keys) EXPECT_TRUE(l.insert(k));
  EXPECT_TRUE(l.sorted_unique_slow());
  EXPECT_EQ(l.size_slow(), 10u);
  EXPECT_TRUE(l.erase(5));
  EXPECT_TRUE(l.erase(0));
  EXPECT_TRUE(l.erase(9));
  EXPECT_TRUE(l.sorted_unique_slow());
  EXPECT_EQ(l.size_slow(), 7u);
}

TEST(HmList, BoundaryKeys) {
  HmList<core::HazardPtrPopDomain> l;
  EXPECT_TRUE(l.insert(0));
  EXPECT_TRUE(l.insert(UINT64_MAX - 1));
  EXPECT_TRUE(l.contains(0));
  EXPECT_TRUE(l.contains(UINT64_MAX - 1));
  EXPECT_TRUE(l.erase(0));
  EXPECT_TRUE(l.erase(UINT64_MAX - 1));
}

TEST(HmList, HelpingUnlinksMarkedNodes) {
  // After an erase, a traversal must not observe the key even if the
  // eraser's unlink CAS lost; exercised by hammering a single key.
  smr::SmrConfig cfg;
  cfg.retire_threshold = 4;
  HmList<smr::HpDomain> l(cfg);
  std::atomic<uint64_t> inserted{0}, erased{0};
  test::run_threads(4, [&](int t) {
    for (int i = 0; i < 4000; ++i) {
      if (t % 2 == 0) {
        if (l.insert(42)) inserted.fetch_add(1);
      } else {
        if (l.erase(42)) erased.fetch_add(1);
      }
    }
    l.domain().detach();
  });
  const uint64_t net = inserted.load() - erased.load();
  EXPECT_LE(net, 1u);
  EXPECT_EQ(l.size_slow() > 0 ? 1u : 0u, net);
  EXPECT_TRUE(l.sorted_unique_slow());
}

TEST(HmList, ConcurrentDisjointInserts) {
  HmList<smr::EbrDomain> l;
  constexpr int kThreads = 4;
  constexpr uint64_t kPer = 300;
  test::run_threads(kThreads, [&](int t) {
    for (uint64_t i = 0; i < kPer; ++i) {
      EXPECT_TRUE(l.insert(static_cast<uint64_t>(t) * kPer + i));
    }
    l.domain().detach();
  });
  EXPECT_EQ(l.size_slow(), kThreads * kPer);
  EXPECT_TRUE(l.sorted_unique_slow());
  for (uint64_t k = 0; k < kThreads * kPer; ++k) EXPECT_TRUE(l.contains(k));
}

TEST(HmList, ConcurrentInsertEraseKeepsInvariants) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  HmList<core::HazardPtrPopDomain> l(cfg);
  constexpr uint64_t kRange = 128;
  std::atomic<int64_t> net{0};
  test::run_threads(4, [&](int t) {
    runtime::Xoshiro256 rng(1000 + t);
    for (int i = 0; i < 5000; ++i) {
      const uint64_t k = rng.next_below(kRange);
      if (rng.percent(50)) {
        if (l.insert(k)) net.fetch_add(1);
      } else {
        if (l.erase(k)) net.fetch_sub(1);
      }
    }
    l.domain().detach();
  });
  EXPECT_EQ(l.size_slow(), static_cast<uint64_t>(net.load()));
  EXPECT_TRUE(l.sorted_unique_slow());
}

}  // namespace
}  // namespace pop::ds
