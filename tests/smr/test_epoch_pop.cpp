// EpochPOP behaviour (paper Algorithm 3): EBR-mode frees in the common
// case (no signals), POP-mode frees when a stalled thread pins the epoch
// — the paper's dual-mode claim, testable end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/epoch_pop.hpp"

namespace pop::core {
namespace {

struct TNode : smr::Reclaimable {
  explicit TNode(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

smr::SmrConfig tiny() {
  smr::SmrConfig c;
  c.retire_threshold = 4;
  c.epoch_freq = 1;
  c.pop_multiplier = 2;
  return c;
}

TEST(EpochPop, CommonCaseFreesViaEpochsWithoutSignals) {
  EpochPopDomain d(tiny());
  for (int i = 0; i < 64; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.ebr_frees, 0u);
  EXPECT_EQ(s.signals_sent, 0u) << "no delay: POP must not activate";
  EXPECT_EQ(s.pop_frees, 0u);
}

TEST(EpochPop, StalledReaderActivatesPopFallback) {
  EpochPopDomain d(tiny());
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();  // announces an epoch and never advances: pins EBR
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  for (int i = 0; i < 64; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.pop_frees, 0u) << "POP fallback must reclaim past the stall";
  EXPECT_GT(s.signals_sent, 0u);
  release.store(true);
  sleeper.join();
}

TEST(EpochPop, StalledReaderReservationIsStillRespected) {
  EpochPopDomain d(tiny());
  TNode* victim = d.create<TNode>(77);
  std::atomic<TNode*> src{victim};
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);  // local reservation
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  {
    EpochPopDomain::Guard g(d);
    d.retire(victim);
  }
  for (int i = 0; i < 64; ++i) {
    EpochPopDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  const auto s = d.stats();
  EXPECT_GT(s.pop_frees, 0u);
  EXPECT_EQ(victim->key, 77u) << "published reservation must protect victim";
  EXPECT_GE(s.unreclaimed(), 1u);
  release.store(true);
  sleeper.join();
}

TEST(EpochPop, EpochAdvancesWithOperations) {
  EpochPopDomain d(tiny());
  const uint64_t e0 = d.current_epoch();
  for (int i = 0; i < 16; ++i) {
    EpochPopDomain::Guard g(d);
  }
  EXPECT_GT(d.current_epoch(), e0);
}

TEST(EpochPop, NoGlobalModeSwitch_TwoReclaimersDifferentModes) {
  // One reclaimer is stalled-blind (epoch mode suffices for it) while
  // another must ping — both run concurrently without coordination.
  EpochPopDomain d(tiny());
  std::atomic<bool> stalled{false}, release{false};
  std::thread sleeper([&] {
    d.begin_op();
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!stalled.load()) std::this_thread::yield();
  std::atomic<bool> ok{true};
  std::thread r1([&] {
    for (int i = 0; i < 32; ++i) {
      EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(i));
    }
    d.detach();
  });
  std::thread r2([&] {
    for (int i = 0; i < 32; ++i) {
      EpochPopDomain::Guard g(d);
      d.retire(d.create<TNode>(1000 + i));
    }
    d.detach();
  });
  r1.join();
  r2.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GT(d.stats().pop_frees, 0u);
  release.store(true);
  sleeper.join();
}

// ---- the epoch pass while a reader pins the oldest retired node ---------
//
// EBR and EpochPOP's epoch mode share EpochAnnouncements::sweep. The pass
// frees only nodes retired before the minimum announced epoch, so while a
// reader sits in an operation it frees nothing — and it must not strand
// anything once the reader leaves or a corpse's older list is adopted.

template <class D>
class EpochPass : public ::testing::Test {};
using EpochSchemes = ::testing::Types<smr::EbrDomain, EpochPopDomain>;
TYPED_TEST_SUITE(EpochPass, EpochSchemes);

constexpr uint64_t kPassEvery = 8;

smr::SmrConfig epoch_pass_cfg() {
  smr::SmrConfig c;
  c.retire_threshold = kPassEvery;
  c.epoch_freq = 1;
  c.pop_multiplier = 1000;  // keep EpochPOP on its epoch pass
  return c;
}

template <class D>
void retire_in_ops(D& d, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    typename D::Guard g(d);
    d.retire(d.template create<TNode>(i));
  }
}

// A thread that announces an epoch and parks inside the operation.
template <class D>
class ParkedReader {
 public:
  explicit ParkedReader(D& d)
      : t_([this, &d] {
          d.begin_op();
          parked_.store(true);
          while (!release_.load()) std::this_thread::yield();
          d.end_op();
          d.detach();
        }) {
    while (!parked_.load()) std::this_thread::yield();
  }
  ~ParkedReader() { leave(); }
  void leave() {
    release_.store(true);
    if (t_.joinable()) t_.join();
  }

 private:
  std::atomic<bool> parked_{false}, release_{false};
  std::thread t_;
};

TYPED_TEST(EpochPass, PinnedPassesFreeNothingThenTheNextPassFreesAll) {
  TypeParam d(epoch_pass_cfg());
  ParkedReader<TypeParam> reader(d);
  retire_in_ops(d, 8 * kPassEvery);
  auto s = d.stats();
  EXPECT_EQ(s.scans, 8u) << "a pinned pass still counts";
  EXPECT_EQ(s.freed, 0u);
  EXPECT_EQ(s.unreclaimed(), 8 * kPassEvery) << "the list stays whole";

  reader.leave();
  retire_in_ops(d, kPassEvery);
  s = d.stats();
  EXPECT_EQ(s.scans, 9u);
  // Everything but the node the pass's own operation retired (its epoch
  // is the retiring thread's own announcement).
  EXPECT_EQ(s.freed, 9 * kPassEvery - 1);
  EXPECT_EQ(s.unreclaimed(), 1u);
  EXPECT_EQ(s.signals_sent, 0u);
  d.detach();
}

TYPED_TEST(EpochPass, AdoptedOlderCorpseListIsFreedOnTheNextPass) {
  TypeParam d(epoch_pass_cfg());
  constexpr uint64_t kOrphans = kPassEvery - 3;  // below its own trigger
  std::atomic<bool> retired{false}, exit_now{false};
  std::thread corpse([&] {
    retire_in_ops(d, kOrphans);  // exits attached: the reaper adopts these
    retired.store(true);
    while (!exit_now.load()) std::this_thread::yield();
  });
  while (!retired.load()) std::this_thread::yield();
  // The reader registers while the corpse still holds its tid, and pins
  // an epoch younger than every orphan but older than the live retires.
  ParkedReader<TypeParam> reader(d);
  exit_now.store(true);
  corpse.join();

  retire_in_ops(d, kPassEvery);
  const auto s = d.stats();
  EXPECT_EQ(s.tids_reaped, 1u);
  EXPECT_EQ(s.orphans_adopted, kOrphans);
  EXPECT_EQ(s.freed, kOrphans) << "the adopted list's older eras are "
                                  "freeable past the pinned reader";
  EXPECT_EQ(s.unreclaimed(), kPassEvery);
  reader.leave();
  d.detach();
}

}  // namespace
}  // namespace pop::core
