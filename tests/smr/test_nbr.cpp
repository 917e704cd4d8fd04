// NBR+ behaviour: neutralization restarts read-phase operations, write
// phases are immune and their reservations protect the published nodes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "smr/checkpoint.hpp"
#include "smr/nbr.hpp"

namespace pop::smr {
namespace {

struct TNode : Reclaimable {
  explicit TNode(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

SmrConfig tiny() {
  SmrConfig c;
  c.retire_threshold = 2;
  return c;
}

TEST(Nbr, ReadPhaseIsNeutralizedByReclaim) {
  NbrDomain d(tiny());
  std::atomic<bool> in_read{false};
  std::atomic<bool> escape{false};
  std::atomic<bool> was_restarted{false};

  std::thread reader([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    if (d.stats().neutralized > 0) {
      // We are re-executing after a longjmp from the signal handler.
      was_restarted.store(true);
      return;
    }
    in_read.store(true);
    // Park in the read phase; the only ways out are neutralization (which
    // re-runs from the checkpoint above) or the escape hatch.
    while (!escape.load(std::memory_order_acquire)) {
    }
  });

  while (!in_read.load()) std::this_thread::yield();
  // Reclaim from the main thread: pings the reader, which must longjmp.
  for (int i = 0; i < 4; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  // Give the signal a moment, then open the escape hatch regardless.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  escape.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(was_restarted.load());
  EXPECT_GT(d.stats().neutralized, 0u);
  d.detach();
}

TEST(Nbr, WritePhaseIsNotNeutralized) {
  NbrDomain d(tiny());
  TNode* protected_node = d.create<TNode>(9);
  std::atomic<bool> in_write{false}, release{false};

  std::thread writer([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    d.enter_write_phase({protected_node});
    in_write.store(true);
    while (!release.load()) std::this_thread::yield();
    // Reached without a restart: neutralization was masked.
    EXPECT_EQ(d.stats().neutralized, 0u);
  });

  while (!in_write.load()) std::this_thread::yield();
  {
    NbrDomain::Guard g(d);
    d.retire(protected_node);
  }
  for (int i = 0; i < 8; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  // protected_node is reserved by the writer's write phase.
  EXPECT_GE(d.stats().unreclaimed(), 1u);
  EXPECT_EQ(protected_node->key, 9u);
  release.store(true);
  writer.join();
  d.detach();
}

TEST(Nbr, ReclaimFreesUnreservedNodes) {
  NbrDomain d(tiny());
  for (int i = 0; i < 16; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().freed, 0u);
  d.detach();
}

TEST(Nbr, ExitWritePhaseReturnsToNeutralizableState) {
  NbrDomain d(tiny());
  std::atomic<bool> armed{false};
  std::atomic<bool> escape{false};
  std::atomic<bool> was_restarted{false};
  std::thread reader([&] {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    if (d.stats().neutralized > 0) {
      was_restarted.store(true);
      return;
    }
    d.enter_write_phase({});
    d.exit_write_phase();  // back in read phase: neutralizable again
    armed.store(true);
    while (!escape.load(std::memory_order_acquire)) {
    }
  });
  while (!armed.load() && !was_restarted.load()) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  escape.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(was_restarted.load());
  EXPECT_GT(d.stats().neutralized, 0u);
  d.detach();
}

TEST(Nbr, ThresholdCrossedInWritePhaseReclaimsInline) {
  NbrDomain d(tiny());
  {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    d.enter_write_phase({});
    for (int i = 0; i < 8; ++i) d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().freed, 0u);
  d.detach();
}

// The pressure backstop fires mid read phase, where reclaiming could be
// cut short by a neutralization longjmp, so the pass waits for end_op.
// That deferred pass is still a forced pass and must be booked as one,
// as it is when the backstop fires outside a read phase.
TEST(Nbr, PressurePassDeferredFromReadPhaseIsBooked) {
  SmrConfig c;
  c.retire_threshold = 100000;  // only the backstop can trigger a pass
  c.pressure_bound = 16;
  NbrDomain d(c);
  {
    NbrDomain::Guard g(d);
    POPSMR_CHECKPOINT(d);
    for (int i = 0; i < 64; ++i) d.retire(d.create<TNode>(i));
    EXPECT_EQ(d.stats().scans, 0u) << "no pass may run in the read phase";
  }
  const StatsSnapshot s = d.stats();
  EXPECT_EQ(s.pressure_events, 2u);  // checked every 32 retires
  EXPECT_EQ(s.scans, 1u);            // one deferred pass at end_op
  EXPECT_EQ(s.forced_handshakes, 1u);
  EXPECT_EQ(s.freed, 64u);
  d.detach();
}

TEST(Nbr, AckHandshakeCountsSignals) {
  NbrDomain d(tiny());
  std::atomic<bool> up{false}, release{false};
  std::thread bystander([&] {
    d.attach();
    up.store(true);
    while (!release.load()) std::this_thread::yield();
    d.detach();
  });
  while (!up.load()) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) {
    NbrDomain::Guard g(d);
    d.retire(d.create<TNode>(i));
  }
  EXPECT_GT(d.stats().signals_sent, 0u);
  release.store(true);
  bystander.join();
  d.detach();
}

}  // namespace
}  // namespace pop::smr
