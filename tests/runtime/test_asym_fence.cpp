#include "runtime/asym_fence.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::runtime {
namespace {

TEST(AsymFence, BackendIsProbedOnce) {
  auto& f = AsymFence::instance();
  const AsymBackend b1 = f.backend();
  const AsymBackend b2 = AsymFence::instance().backend();
  EXPECT_EQ(static_cast<int>(b1), static_cast<int>(b2));
}

TEST(AsymFence, LightFenceIsCallable) {
  AsymFence::light_fence();  // compiler barrier only; must not crash
  SUCCEED();
}

TEST(AsymFence, HeavyFenceCompletesWithNoOtherThreads) {
  AsymFence::instance().heavy_fence();
  SUCCEED();
}

TEST(AsymFence, HeavyFenceCompletesWithBusyThreads) {
  std::atomic<bool> stop{false};
  std::atomic<int> up{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      (void)my_tid();
      up.fetch_add(1);
      volatile uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
    });
  }
  while (up.load() < 4) std::this_thread::yield();
  for (int i = 0; i < 16; ++i) AsymFence::instance().heavy_fence();
  stop.store(true);
  for (auto& t : ts) t.join();
  SUCCEED();
}

// Message-passing smoke test: store, heavy fence, then every reader that
// subsequently acknowledges must see the store.
TEST(AsymFence, StoreVisibleAfterHeavyFence) {
  std::atomic<int> data{0};
  std::atomic<int> seen{-1};
  std::atomic<bool> go{false};
  std::thread reader([&] {
    (void)my_tid();
    while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
    seen.store(data.load(std::memory_order_relaxed));
  });
  data.store(42, std::memory_order_relaxed);
  AsymFence::instance().heavy_fence();
  go.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(seen.load(), 42);
}

}  // namespace
}  // namespace pop::runtime
