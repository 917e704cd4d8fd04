// Signal multiplexing: the same threads drive two data structures with
// *different* signal-based reclaimers at once. The single process-wide
// SIGUSR1 handler must dispatch to both domains without cross-talk —
// a ping for one domain publishing/neutralizing the other must be benign.
#include <gtest/gtest.h>

#include <atomic>

#include "core/epoch_pop.hpp"
#include "ds/dgt_bst.hpp"
#include "ds/hm_list.hpp"
#include "runtime/rng.hpp"
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
