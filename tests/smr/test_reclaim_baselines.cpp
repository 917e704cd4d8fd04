// Behavioural tests of the baseline schemes' reclamation conditions:
// who may free what, while which reservation is held.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>

#include "runtime/pool_alloc.hpp"
#include "smr/all.hpp"
#include "../support/all_schemes.hpp"
#include "../support/test_util.hpp"

namespace pop {
namespace {

struct TNode : smr::Reclaimable {
  explicit TNode(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

smr::SmrConfig tiny() {
  smr::SmrConfig c;
  c.retire_threshold = 2;
  c.epoch_freq = 1;
  return c;
}

// Retire enough dummies from the main thread to force a scan.
template <class D>
void force_scans(D& d, int n = 16) {
  for (int i = 0; i < n; ++i) {
    typename D::Guard g(d);
    d.retire(d.template create<TNode>(1000 + i));
  }
}

TEST(HpBaseline, ReservedNodeSurvivesScan) {
  smr::HpDomain d(tiny());
  TNode* victim = d.create<TNode>(1);
  std::atomic<TNode*> src{victim};

  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.attach();
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();

  {
    typename smr::HpDomain::Guard g(d);
    d.retire(victim);
  }
  force_scans(d);
  // victim retired but reserved: must not be freed.
  EXPECT_EQ(d.stats().unreclaimed() >= 1, true);
  EXPECT_EQ(victim->key, 1u);  // still readable

  release.store(true);
  reader.join();
  // After the reader cleared, scans are free to reclaim the victim (no
  // read of victim past this point); teardown drains the rest.
  force_scans(d);
}

TEST(HpAsymBaseline, ReservedNodeSurvivesScan) {
  smr::HpAsymDomain d(tiny());
  TNode* victim = d.create<TNode>(2);
  std::atomic<TNode*> src{victim};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();
  {
    typename smr::HpAsymDomain::Guard g(d);
    d.retire(victim);
  }
  force_scans(d);
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  release.store(true);
  reader.join();
}

TEST(HeBaseline, EraReservationPinsLifespanIntersectingNodes) {
  smr::HeDomain d(tiny());
  TNode* victim = d.create<TNode>(3);  // birth era = current
  std::atomic<TNode*> src{victim};
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    d.begin_op();
    EXPECT_EQ(d.protect(0, src), victim);  // reserves current era
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!reserved.load()) std::this_thread::yield();
  {
    typename smr::HeDomain::Guard g(d);
    d.retire(victim);  // lifespan intersects the reader's reserved era
  }
  force_scans(d);
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  release.store(true);
  reader.join();
}

TEST(HeBaseline, NodesBornAfterReservedEraAreFreeable) {
  smr::HeDomain d(tiny());
  // Main thread holds no reservation; all retired nodes freeable.
  force_scans(d, 32);
  const auto s = d.stats();
  EXPECT_GT(s.freed, 0u);
}

TEST(EbrBaseline, QuiescentThreadsAllowReclamation) {
  smr::EbrDomain d(tiny());
  force_scans(d, 32);
  EXPECT_GT(d.stats().freed, 0u);
}

TEST(EbrBaseline, InCriticalSectionReaderBlocksFrees) {
  smr::EbrDomain d(tiny());
  std::atomic<bool> entered{false}, release{false};
  std::thread reader([&] {
    d.begin_op();  // announces current epoch and stays
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!entered.load()) std::this_thread::yield();
  const auto before = d.stats();
  force_scans(d, 32);  // retires 32 nodes *after* the reader's epoch
  const auto after = d.stats();
  // Nodes retired at epochs >= the reader's announced epoch stay pinned.
  EXPECT_GT(after.unreclaimed(), before.unreclaimed());
  release.store(true);
  reader.join();
}

TEST(IbrBaseline, IntervalPinsOnlyIntersectingLifespans) {
  smr::IbrDomain d(tiny());
  std::atomic<bool> entered{false}, release{false};
  std::thread reader([&] {
    d.begin_op();  // reserves [e,e]
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!entered.load()) std::this_thread::yield();
  // Nodes born after the reader's interval upper bound are freeable even
  // though the reader never quiesces: this is IBR's point vs EBR.
  for (int i = 0; i < 64; ++i) {
    typename smr::IbrDomain::Guard g(d);
    d.retire(d.create<TNode>(static_cast<uint64_t>(i)));
  }
  EXPECT_GT(d.stats().freed, 0u);
  release.store(true);
  reader.join();
}

TEST(NrBaseline, NeverFreesDuringRun) {
  smr::NrDomain d(tiny());
  force_scans(d, 32);
  const auto s = d.stats();
  EXPECT_EQ(s.freed, 0u);
  EXPECT_EQ(s.retired, 32u);
}

TEST(BrcBaseline, FreesAfterGracePeriods) {
  smr::BrcDomain d(tiny());
  force_scans(d, 16);
  EXPECT_GT(d.stats().freed, 0u);
}

TEST(BrcBaseline, ActiveReaderBlocksGracePeriodUntilExit) {
  smr::BrcDomain d(tiny());
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> reclaimed{false};
  std::thread reader([&] {
    d.begin_op();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    d.end_op();
    d.detach();
  });
  while (!entered.load()) std::this_thread::yield();
  std::thread reclaimer([&] {
    force_scans(d, 8);  // grace period must wait for the reader
    reclaimed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(reclaimed.load());  // still blocked on the reader
  release.store(true);
  reader.join();
  reclaimer.join();
  EXPECT_TRUE(reclaimed.load());
  EXPECT_GT(d.stats().freed, 0u);
}

// ---- reclamation cadence ---------------------------------------------------
//
// Pins, per scheme, exactly when passes run and what they free for one
// fixed single-threaded retire sequence: one node held under a reservation
// inside a long bracket while 150 more retire, then 200 retires in brackets
// of their own. Any change to a trigger (tick vs length), to an era/epoch
// bump before a pass, or to EpochPOP's fallback multiplier moves at least
// one of these counts. The values are the behaviour of the schemes as
// written; a deliberate cadence change must update them.

struct Cadence {
  uint64_t retired, freed, scans, signals_sent, ebr_frees, pop_frees,
      max_retire_len, pressure_events, forced_handshakes;
};

template <class D>
Cadence run_cadence(const smr::SmrConfig& cfg) {
  D d(cfg);
  {
    typename D::Guard g(d);
    TNode* held = d.template create<TNode>(0);
    std::atomic<TNode*> src{held};
    EXPECT_EQ(d.protect(0, src), held);
    d.retire(held);
    for (uint64_t i = 1; i <= 150; ++i) d.retire(d.template create<TNode>(i));
  }
  for (uint64_t i = 0; i < 200; ++i) {
    typename D::Guard g(d);
    d.retire(d.template create<TNode>(1000 + i));
  }
  const auto s = d.stats();
  d.detach();
  return {s.retired,        s.freed,           s.scans,
          s.signals_sent,   s.ebr_frees,       s.pop_frees,
          s.max_retire_len, s.pressure_events, s.forced_handshakes};
}

smr::SmrConfig cadence_cfg(uint64_t pressure_bound) {
  smr::SmrConfig c;
  c.retire_threshold = 64;
  c.epoch_freq = 64;
  c.pop_multiplier = 2;
  c.pressure_bound = pressure_bound;
  return c;
}

void expect_cadence(const char* scheme, const Cadence& got,
                    const std::map<std::string, Cadence>& table) {
  const auto it = table.find(scheme);
  ASSERT_NE(it, table.end()) << scheme;
  const Cadence& want = it->second;
  EXPECT_EQ(got.retired, want.retired) << scheme;
  EXPECT_EQ(got.freed, want.freed) << scheme;
  EXPECT_EQ(got.scans, want.scans) << scheme;
  EXPECT_EQ(got.signals_sent, want.signals_sent) << scheme;
  EXPECT_EQ(got.ebr_frees, want.ebr_frees) << scheme;
  EXPECT_EQ(got.pop_frees, want.pop_frees) << scheme;
  EXPECT_EQ(got.max_retire_len, want.max_retire_len) << scheme;
  EXPECT_EQ(got.pressure_events, want.pressure_events) << scheme;
  EXPECT_EQ(got.forced_handshakes, want.forced_handshakes) << scheme;
}

template <class D>
class ReclaimCadence : public ::testing::Test {};
TYPED_TEST_SUITE(ReclaimCadence, test::AllSchemes);

// Normal cadence only: the pressure backstop is off.
TYPED_TEST(ReclaimCadence, TriggersAndBumpsAreExact) {
  // {retired, freed, scans, signals_sent, ebr_frees, pop_frees,
  //  max_retire_len, pressure_events, forced_handshakes}
  static const std::map<std::string, Cadence> kWant = {
      {"NR", {351, 0, 0, 0, 0, 0, 351, 0, 0}},
      {"HP", {351, 320, 5, 0, 0, 0, 65, 0, 0}},
      {"HPAsym", {351, 320, 5, 0, 0, 0, 65, 0, 0}},
      {"HE", {351, 320, 5, 0, 0, 0, 128, 0, 0}},
      {"EBR", {351, 277, 6, 0, 0, 0, 256, 0, 0}},
      {"IBR", {351, 257, 5, 0, 0, 0, 127, 0, 0}},
      {"NBR", {351, 320, 5, 0, 0, 0, 64, 0, 0}},
      {"BRC", {351, 343, 4, 0, 0, 0, 151, 0, 0}},
      {"HazardPtrPOP", {351, 320, 5, 0, 0, 0, 65, 0, 0}},
      {"HazardEraPOP", {351, 320, 5, 0, 0, 0, 128, 0, 0}},
      {"EpochPOP", {351, 277, 7, 0, 150, 127, 128, 0, 0}},
  };
  expect_cadence(TypeParam::kName, run_cadence<TypeParam>(cadence_cfg(0)),
                 kWant);
}

// The backstop on top: a bound every reclaiming scheme crosses between
// its regular passes, and the held reservation keeps crossed.
TYPED_TEST(ReclaimCadence, PressureBackstopPassesAreExact) {
  static const std::map<std::string, Cadence> kWant = {
      {"NR", {351, 0, 0, 0, 0, 0, 351, 0, 0}},
      {"HP", {351, 320, 10, 0, 0, 0, 36, 5, 5}},
      {"HPAsym", {351, 320, 10, 0, 0, 0, 36, 5, 5}},
      {"HE", {351, 320, 12, 0, 0, 0, 64, 7, 7}},
      {"EBR", {351, 293, 14, 0, 0, 0, 162, 9, 9}},
      {"IBR", {351, 320, 15, 0, 0, 0, 64, 10, 10}},
      {"NBR", {351, 320, 10, 0, 0, 0, 36, 5, 5}},
      {"BRC", {351, 344, 7, 0, 0, 0, 151, 7, 7}},
      {"HazardPtrPOP", {351, 320, 10, 0, 0, 0, 36, 5, 5}},
      {"HazardEraPOP", {351, 320, 12, 0, 0, 0, 64, 7, 7}},
      {"EpochPOP", {351, 320, 10, 0, 0, 320, 33, 10, 10}},
  };
  expect_cadence(TypeParam::kName, run_cadence<TypeParam>(cadence_cfg(20)),
                 kWant);
}

}  // namespace
}  // namespace pop
