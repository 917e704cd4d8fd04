// Michael-Scott queue: FIFO semantics under every reclamation scheme
// (typed tests), plus concurrent producer/consumer invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "ds/ms_queue.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/thread_registry.hpp"
#include "smr/all.hpp"
#include "../support/all_schemes.hpp"
#include "../support/test_util.hpp"

namespace pop::ds {
namespace {

template <class Smr>
class MsQueueTyped : public ::testing::Test {
 protected:
  smr::SmrConfig tiny() const {
    smr::SmrConfig c;
    c.retire_threshold = 8;
    c.epoch_freq = 2;
    return c;
  }
};

TYPED_TEST_SUITE(MsQueueTyped, test::AllSchemes);

TYPED_TEST(MsQueueTyped, StartsEmpty) {
  MsQueue<TypeParam> q;
  EXPECT_TRUE(q.empty_slow());
  EXPECT_EQ(q.dequeue(), std::nullopt);
}

TYPED_TEST(MsQueueTyped, FifoOrderSingleThread) {
  MsQueue<TypeParam> q(this->tiny());
  for (uint64_t i = 0; i < 100; ++i) q.enqueue(i);
  EXPECT_EQ(q.size_slow(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(q.empty_slow());
}

TYPED_TEST(MsQueueTyped, InterleavedEnqueueDequeue) {
  MsQueue<TypeParam> q(this->tiny());
  uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 200; ++round) {
    q.enqueue(next_in++);
    q.enqueue(next_in++);
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
  EXPECT_EQ(q.size_slow(), next_in - next_out);
}

TYPED_TEST(MsQueueTyped, DequeueRetiresNodes) {
  MsQueue<TypeParam> q(this->tiny());
  for (uint64_t i = 0; i < 64; ++i) q.enqueue(i);
  for (uint64_t i = 0; i < 64; ++i) (void)q.dequeue();
  EXPECT_EQ(q.domain().stats().retired, 64u);  // one dummy per dequeue
}

TYPED_TEST(MsQueueTyped, ConcurrentProducersConsumersConserveItems) {
  MsQueue<TypeParam> q(this->tiny());
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPer = 3000;
  std::atomic<uint64_t> consumed_sum{0};
  std::atomic<uint64_t> consumed_n{0};

  test::run_threads(kProducers + kConsumers, [&](int w) {
    if (w < kProducers) {
      for (uint64_t i = 0; i < kPer; ++i) {
        q.enqueue(static_cast<uint64_t>(w) * kPer + i + 1);
      }
    } else {
      uint64_t got = 0;
      while (got < kPer) {
        if (auto v = q.dequeue()) {
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_n.fetch_add(1, std::memory_order_relaxed);
          ++got;
        }
      }
    }
    q.domain().detach();
  });

  EXPECT_EQ(consumed_n.load(), kProducers * kPer);
  EXPECT_TRUE(q.empty_slow());
  // Sum of 1..kPer plus kPer..2kPer: item conservation, no dup/loss.
  uint64_t expect = 0;
  for (uint64_t w = 0; w < kProducers; ++w) {
    for (uint64_t i = 0; i < kPer; ++i) expect += w * kPer + i + 1;
  }
  EXPECT_EQ(consumed_sum.load(), expect);
}

TYPED_TEST(MsQueueTyped, PerProducerOrderPreserved) {
  // FIFO per producer: a consumer must see each producer's items in
  // increasing order even under concurrency.
  MsQueue<TypeParam> q(this->tiny());
  constexpr uint64_t kPer = 4000;
  std::atomic<bool> fail{false};
  test::run_threads(2, [&](int w) {
    if (w == 0) {
      for (uint64_t i = 1; i <= kPer; ++i) q.enqueue(i);
    } else {
      uint64_t last = 0, got = 0;
      while (got < kPer) {
        if (auto v = q.dequeue()) {
          if (*v <= last) fail.store(true);
          last = *v;
          ++got;
        }
      }
    }
    q.domain().detach();
  });
  EXPECT_FALSE(fail.load());
}

// Leak balance: after MPMC churn plus queue/domain teardown, every pool
// block the queue allocated must be back on a free list. Run explicitly
// for the schemes the paper centres on (HazardPtrPOP) and its EBR
// substrate; the typed suite above covers functional behaviour for the
// rest.
template <class Smr>
void expect_pool_balance_after_churn() {
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    smr::SmrConfig cfg;
    cfg.retire_threshold = 8;
    cfg.epoch_freq = 2;
    MsQueue<Smr> q(cfg);
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr uint64_t kPer = 2000;
    test::run_threads(kProducers + kConsumers, [&](int w) {
      (void)runtime::my_tid();
      if (w < kProducers) {
        for (uint64_t i = 0; i < kPer; ++i) q.enqueue(i);
      } else {
        uint64_t got = 0;
        while (got < kPer) {
          if (q.dequeue()) ++got;
        }
      }
      q.domain().detach();
    });
    EXPECT_TRUE(q.empty_slow());
  }  // queue destroyed: dummy freed by the DS, retired nodes by the domain
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance: some queue node was never freed under "
      << Smr::kName;
}

TEST(MsQueueLeakBalance, HazardPtrPop) {
  expect_pool_balance_after_churn<core::HazardPtrPopDomain>();
}

TEST(MsQueueLeakBalance, Ebr) {
  expect_pool_balance_after_churn<smr::EbrDomain>();
}

}  // namespace
}  // namespace pop::ds
