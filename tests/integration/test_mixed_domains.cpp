// Signal multiplexing: the same threads drive two data structures with
// *different* signal-based reclaimers at once. The single process-wide
// SIGUSR1 handler must dispatch to both domains without cross-talk —
// a ping for one domain publishing/neutralizing the other must be benign.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/epoch_pop.hpp"
#include "ds/dgt_bst.hpp"
#include "ds/hm_list.hpp"
#include "runtime/rng.hpp"
#include "smr/checkpoint.hpp"
#include "smr/hazard_domain.hpp"
#include "smr/nbr.hpp"
#include "../support/test_util.hpp"

namespace pop {
namespace {

TEST(MixedDomains, TwoPopDomainsInterleaved) {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  ds::HmList<core::HazardPtrPopDomain> list(cfg);
  ds::DgtBst<core::EpochPopDomain> tree(cfg);
  std::atomic<int64_t> lnet{0}, tnet{0};
  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(42 + w);
    for (int i = 0; i < 4000; ++i) {
      const uint64_t k = rng.next_below(128);
      if (rng.percent(50)) {
        if (rng.percent(50)) {
          if (list.insert(k)) lnet.fetch_add(1);
        } else {
          if (list.erase(k)) lnet.fetch_sub(1);
        }
      } else {
        if (rng.percent(50)) {
          if (tree.insert(k)) tnet.fetch_add(1);
        } else {
          if (tree.erase(k)) tnet.fetch_sub(1);
        }
      }
    }
    list.domain().detach();
    tree.domain().detach();
  });
  EXPECT_EQ(list.size_slow(), static_cast<uint64_t>(lnet.load()));
  EXPECT_EQ(tree.size_slow(), static_cast<uint64_t>(tnet.load()));
}

TEST(MixedDomains, PopAndNbrCoexist) {
  // NBR neutralizes on pings; HazardPtrPOP publishes on pings. A thread
  // inside an NBR op must not be corrupted by a POP reclaimer's signal
  // and vice versa (the bus notifies both clients on every ping).
  smr::SmrConfig cfg;
  cfg.retire_threshold = 8;
  ds::HmList<core::HazardPtrPopDomain> list(cfg);
  ds::HmList<smr::NbrDomain> nlist(cfg);
  std::atomic<int64_t> lnet{0}, nnet{0};
  test::run_threads(4, [&](int w) {
    runtime::Xoshiro256 rng(7 + w);
    for (int i = 0; i < 4000; ++i) {
      const uint64_t k = rng.next_below(64);
      if (rng.percent(50)) {
        if (rng.percent(50)) {
          if (list.insert(k)) lnet.fetch_add(1);
        } else {
          if (list.erase(k)) lnet.fetch_sub(1);
        }
      } else {
        if (rng.percent(50)) {
          if (nlist.insert(k)) nnet.fetch_add(1);
        } else {
          if (nlist.erase(k)) nnet.fetch_sub(1);
        }
      }
    }
    list.domain().detach();
    nlist.domain().detach();
  });
  EXPECT_EQ(list.size_slow(), static_cast<uint64_t>(lnet.load()));
  EXPECT_EQ(nlist.size_slow(), static_cast<uint64_t>(nnet.load()));
  EXPECT_TRUE(list.sorted_unique_slow());
  EXPECT_TRUE(nlist.sorted_unique_slow());
}

struct TNode : smr::Reclaimable {};

// One ping runs every client on the receiving thread before the bus takes
// a restart jump. A reader attached to NBR domain A and then to domain B
// parks in A's read phase while the main thread reclaims in B: each of
// B's pings must make B's client publish even though A's client restarts
// the reader. If A's restart jumped before B's client ran, B's wave would
// never complete (NBR) or would time out and defer (POP).
template <class B>
void reclaim_beside_a_parked_nbr_reader() {
  smr::SmrConfig cfg;
  cfg.retire_threshold = 2;
  smr::NbrDomain a(cfg);
  B b(cfg);
  std::atomic<bool> parked{false}, release{false}, watchdog_fired{false};
  std::thread reader([&] {
    a.attach();
    b.attach();
    {
      smr::NbrDomain::Guard g(a);
      POPSMR_CHECKPOINT(a);
      parked.store(true);
      while (!release.load(std::memory_order_acquire)) {
      }
    }
    b.detach();
    a.detach();
  });
  // Ends a hung reclaim so a failure cannot hang the suite.
  std::thread watchdog([&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!release.exchange(true)) watchdog_fired.store(true);
  });
  while (!parked.load()) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {
    typename B::Guard g(b);
    b.retire(b.template create<TNode>());
  }
  release.store(true, std::memory_order_release);
  watchdog.join();
  reader.join();
  const auto s = b.stats();
  b.detach();
  EXPECT_FALSE(watchdog_fired.load()) << B::kName << " reclaim hung";
  EXPECT_GT(s.freed, 0u) << B::kName;
  EXPECT_EQ(s.waves_timed_out, 0u) << B::kName;
  EXPECT_GT(a.stats().neutralized, 0u);
}

TEST(MixedDomains, NbrRestartWaitsForEveryClient) {
  reclaim_beside_a_parked_nbr_reader<smr::NbrDomain>();
  reclaim_beside_a_parked_nbr_reader<core::HazardPtrPopDomain>();
}

TEST(MixedDomains, SequentialDomainLifetimes) {
  // Create/destroy many domains in sequence on one thread: attach state,
  // the signal bus slots, and tids must all be recycled cleanly.
  for (int round = 0; round < 20; ++round) {
    smr::SmrConfig cfg;
    cfg.retire_threshold = 4;
    ds::HmList<core::HazardPtrPopDomain> list(cfg);
    for (uint64_t k = 0; k < 32; ++k) list.insert(k);
    for (uint64_t k = 0; k < 32; ++k) list.erase(k);
    list.domain().detach();
  }
  SUCCEED();
}

}  // namespace
}  // namespace pop
