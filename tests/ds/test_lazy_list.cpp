// Lazy list structure tests.
#include <gtest/gtest.h>

#include "core/epoch_pop.hpp"
#include "ds/lazy_list.hpp"
#include "runtime/rng.hpp"
#include "smr/hazard_domain.hpp"
#include "smr/nbr.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

TEST(LazyList, StartsEmpty) {
  LazyList<smr::HpDomain> l;
  EXPECT_EQ(l.size_slow(), 0u);
  EXPECT_FALSE(l.contains(7));
  EXPECT_FALSE(l.erase(7));
}

TEST(LazyList, SortedAfterShuffledInserts) {
  LazyList<smr::HpDomain> l;
  const uint64_t keys[] = {13, 2, 99, 41, 7, 55, 23, 1};
  for (uint64_t k : keys) EXPECT_TRUE(l.insert(k));
  EXPECT_TRUE(l.sorted_unique_slow());
  EXPECT_EQ(l.size_slow(), 8u);
}

TEST(LazyList, EraseMakesKeyInvisibleImmediately) {
  LazyList<smr::HpDomain> l;
  l.insert(10);
  l.insert(20);
  EXPECT_TRUE(l.erase(10));
  EXPECT_FALSE(l.contains(10));
  EXPECT_TRUE(l.contains(20));
}

TEST(LazyList, ValidationRetriesUnderContention) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  LazyList<core::EpochPopDomain> l(cfg);
  std::atomic<int64_t> net{0};
  test::run_threads(4, [&](int t) {
    runtime::Xoshiro256 rng(7 + t);
    for (int i = 0; i < 5000; ++i) {
      const uint64_t k = rng.next_below(64);
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

TEST(LazyList, WorksUnderNbrNeutralization) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 4;  // constant reclaiming => constant signals
  LazyList<smr::NbrDomain> l(cfg);
  std::atomic<int64_t> net{0};
  std::atomic<int> arrived{0};
  test::run_threads(4, [&](int t) {
    // Start barrier: on a single-core box tiny workloads otherwise run
    // serially and reclaimers find nobody to ping. Reclaimers signal only
    // *attached* threads, so the barrier must come after attach().
    l.domain().attach();
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
    runtime::Xoshiro256 rng(91 + t);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t k = rng.next_below(32);
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
  // With such a low threshold some reclaim ran while peers were live.
  EXPECT_GT(l.domain().stats().signals_sent, 0u);
}

}  // namespace
}  // namespace pop::ds
