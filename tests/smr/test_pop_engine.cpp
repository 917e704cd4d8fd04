// Tests of the publish-on-ping handshake machinery (paper Algorithm 2):
// private reservations stay private until a ping, the publish counter
// advances exactly when the handler runs, and ping_all_and_wait returns
// only after every attached thread has published.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/pop_engine.hpp"
#include "runtime/thread_registry.hpp"
#include "../support/test_util.hpp"

namespace pop::core {
namespace {

TEST(PopEngine, LocalReservationIsPrivateUntilPing) {
  PopEngine e(4);
  std::atomic<bool> reserved{false}, release{false};
  std::thread reader([&] {
    const int tid = runtime::my_tid();
    e.attach(tid);
    e.reserve_local(tid, 0, 0xABCD0);
    reserved.store(true);
    while (!release.load()) std::this_thread::yield();
    e.detach(tid);
  });
  while (!reserved.load()) std::this_thread::yield();

  uintptr_t shared[runtime::kMaxThreads * smr::kMaxSlots];
  int n = e.collect_shared(shared);
  bool found = false;
  for (int i = 0; i < n; ++i) found = found || shared[i] == 0xABCD0;
  EXPECT_FALSE(found) << "reservation leaked to shared slots without a ping";

  const int self = runtime::my_tid();
  e.attach(self);
  e.ping_all_and_wait(self);

  n = e.collect_shared(shared);
  found = false;
  for (int i = 0; i < n; ++i) found = found || shared[i] == 0xABCD0;
  EXPECT_TRUE(found) << "reservation not published after the handshake";

  release.store(true);
  reader.join();
  e.detach(self);
}

// Zero slots is HPAsym's fallback heavy fence: the wave still needs every
// handler's fence and counter bump.
TEST(PopEngine, PublishCounterAdvancesOnPing) {
  for (const int slots : {4, 0}) {
    PopEngine e(slots);
    std::atomic<bool> up{false}, release{false};
    std::atomic<int> reader_tid{-1};
    std::thread reader([&] {
      const int tid = runtime::my_tid();
      e.attach(tid);
      reader_tid.store(tid);
      up.store(true);
      while (!release.load()) std::this_thread::yield();
      e.detach(tid);
    });
    while (!up.load()) std::this_thread::yield();
    const uint64_t before = e.publish_count(reader_tid.load());
    const int self = runtime::my_tid();
    e.attach(self);
    EXPECT_TRUE(e.ping_all_and_wait(self).complete()) << slots;
    EXPECT_GT(e.publish_count(reader_tid.load()), before) << slots;
    release.store(true);
    reader.join();
    e.detach(self);
  }
}

// A thread that died without deregistering never publishes. The wave's
// first escalation probes it dead and skips it, well before the deadline.
TEST(PopEngine, CorpseCostsOneEscalationNotTheDeadline) {
  PopEngine e(4, 3000);
  auto& reg = runtime::ThreadRegistry::instance();
  int corpse_tid = -1;
  std::thread corpse([&] {
    corpse_tid = runtime::my_tid();
    e.attach(corpse_tid);
    reg.detail_abandon_registration();
  });
  corpse.join();
  const uint64_t corpse_epoch = reg.slot_epoch(corpse_tid);
  const int self = runtime::my_tid();
  e.attach(self);
  const auto t0 = std::chrono::steady_clock::now();
  const HandshakeResult hs = e.ping_all_and_wait(self);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(hs.certified_dead, 1);
  EXPECT_TRUE(hs.complete());
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  e.detach(self);
  // The wave leaves the registry slot to a reaper; release it here.
  EXPECT_TRUE(reg.certify_zombie(corpse_tid, corpse_epoch));
}

TEST(PopEngine, HandshakeCompletesWithNoOtherThreads) {
  PopEngine e(4);
  const int self = runtime::my_tid();
  e.attach(self);
  e.reserve_local(self, 0, 0x1234560);
  e.ping_all_and_wait(self);  // must self-publish and return promptly
  uintptr_t shared[runtime::kMaxThreads * smr::kMaxSlots];
  const int n = e.collect_shared(shared);
  bool found = false;
  for (int i = 0; i < n; ++i) found = found || shared[i] == 0x1234560;
  EXPECT_TRUE(found);
  e.detach(self);
}

TEST(PopEngine, DetachedThreadDoesNotBlockHandshake) {
  PopEngine e(4);
  // Reader attaches and then detaches before the reclaimer pings.
  test::run_threads(1, [&](int) {
    const int tid = runtime::my_tid();
    e.attach(tid);
    e.reserve_local(tid, 0, 0xF00D0);
    e.detach(tid);
  });
  const int self = runtime::my_tid();
  e.attach(self);
  e.ping_all_and_wait(self);  // must not spin on the departed thread
  uintptr_t shared[runtime::kMaxThreads * smr::kMaxSlots];
  const int n = e.collect_shared(shared);
  for (int i = 0; i < n; ++i) EXPECT_NE(shared[i], 0xF00D0u);
  e.detach(self);
}

TEST(PopEngine, ClearLocalDropsReservations) {
  PopEngine e(4);
  const int self = runtime::my_tid();
  e.attach(self);
  e.reserve_local(self, 0, 0xBEEF0);
  e.clear_local(self);
  e.ping_all_and_wait(self);
  uintptr_t shared[runtime::kMaxThreads * smr::kMaxSlots];
  const int n = e.collect_shared(shared);
  for (int i = 0; i < n; ++i) EXPECT_NE(shared[i], 0xBEEF0u);
  e.detach(self);
}

TEST(PopEngine, ConcurrentReclaimersCoalesce) {
  PopEngine e(4);
  std::atomic<bool> release{false};
  std::atomic<int> up{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      const int tid = runtime::my_tid();
      e.attach(tid);
      e.reserve_local(tid, 0, 0x5150 + 16 * static_cast<uintptr_t>(tid));
      up.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      e.detach(tid);
    });
  }
  while (up.load() < 3) std::this_thread::yield();
  // Two reclaimers handshake simultaneously; both must terminate.
  test::run_threads(2, [&](int) {
    const int tid = runtime::my_tid();
    e.attach(tid);
    e.ping_all_and_wait(tid);
    e.detach(tid);
  });
  release.store(true);
  for (auto& t : readers) t.join();
  SUCCEED();
}

TEST(PopEngine, ConcurrentReclaimersShareOnePingWave) {
  // Handshake coalescing: when two reclaimers' handshakes overlap, one
  // leads the wave (broadcasts) and the other joins it instead of
  // broadcasting its own. The test asserts on that lead/join decision,
  // not on signal totals: targeted re-pings grow with scheduling delay,
  // so on oversubscribed CPUs a concurrent phase can send more signals
  // than a sequential one while coalescing perfectly.
  PopEngine e(4);
  constexpr int kReaders = 6;
  constexpr int kSequentialRounds = 25;
  // Barrier-released handshake pairs until one coalesces; the cap only
  // bounds a pathological scheduler (as in CrossEngineWavesCoalesce).
  constexpr int kMaxRounds = 200;
  std::atomic<bool> release{false};
  std::atomic<int> up{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      const int tid = runtime::my_tid();
      e.attach(tid);
      up.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      e.detach(tid);
    });
  }
  while (up.load() < kReaders) std::this_thread::yield();

  std::atomic<uint64_t> sequential_signals{0};
  std::atomic<uint64_t> sequential_led{0};
  std::atomic<uint64_t> sequential_joined{0};
  std::atomic<uint64_t> concurrent_handshakes{0};
  std::atomic<int> attached_reclaimers{0};
  std::atomic<int> turn{0};
  std::atomic<int> arrived{0};
  std::atomic<bool> stop{false};
  test::run_threads(2, [&](int w) {
    const int tid = runtime::my_tid();
    e.attach(tid);
    attached_reclaimers.fetch_add(1);
    while (attached_reclaimers.load() < 2) std::this_thread::yield();

    // Phase 1 — sequential baseline: strict alternation, no overlap, so
    // every handshake leads its own wave.
    for (int r = 0; r < kSequentialRounds; ++r) {
      while (turn.load() != 2 * r + w) std::this_thread::yield();
      sequential_signals.fetch_add(
          static_cast<uint64_t>(e.ping_all_and_wait(tid).sent));
      turn.fetch_add(1);
    }
    // Reclaimer 1 owns the last sequential turn, so its snapshot is taken
    // before either reclaimer passes the first concurrent barrier.
    if (w == 1) {
      sequential_led.store(e.waves_led());
      sequential_joined.store(e.waves_joined());
    }

    // Phase 2 — concurrent: a barrier per round releases both reclaimers
    // into the handshake together, until one joins the other's wave.
    for (int r = 0; r < kMaxRounds; ++r) {
      arrived.fetch_add(1);
      while (arrived.load() < 2 * (r + 1)) std::this_thread::yield();
      // A worker sets `stop` only before its barrier arrival, so both
      // observe the same value here and exit on the same round.
      if (stop.load()) break;
      e.ping_all_and_wait(tid);
      concurrent_handshakes.fetch_add(1);
      if (e.waves_joined() > sequential_joined.load()) stop.store(true);
    }
    e.detach(tid);
  });

  EXPECT_EQ(sequential_led.load(), static_cast<uint64_t>(2 * kSequentialRounds))
      << "a sequential handshake did not lead its own wave";
  EXPECT_EQ(sequential_joined.load(), 0u);
  // Each sequential handshake pings all 7 other attached threads (targeted
  // re-pings can only add to this on a very slow machine).
  EXPECT_GE(sequential_signals.load(),
            static_cast<uint64_t>(2 * kSequentialRounds * (kReaders + 1)));
  // The mechanism: in some concurrent round the second reclaimer joined
  // the first's open wave instead of broadcasting its own.
  EXPECT_GT(e.waves_joined(), 0u)
      << "no concurrent handshake joined an open wave in " << kMaxRounds
      << " rounds";
  EXPECT_EQ(e.waves_led() + e.waves_joined(),
            2 * kSequentialRounds + concurrent_handshakes.load());

  release.store(true);
  for (auto& t : readers) t.join();
}

TEST(PopEngine, CrossEngineWavesCoalesce) {
  // The handshake round is process-wide: with two co-resident domains
  // (the sharded service layer's shape), a reclaimer in engine B that
  // observes a wave led by a reclaimer in engine A rides it — one ping
  // publishes every domain's reservations on the receiving thread, so
  // A's broadcast advances B's publish counters too. Both handshakes
  // must terminate, and overlapping rounds must share waves (fewer
  // completed waves than handshakes).
  PopEngine ea(4), eb(4);
  constexpr int kReaders = 5;
  // Barrier-released handshake pairs until one coalesces; the cap only
  // bounds a pathological scheduler (each round overlaps with high
  // probability, so the loop normally exits within a few rounds).
  constexpr int kMaxRounds = 200;
  std::atomic<bool> release{false};
  std::atomic<int> up{0};
  std::atomic<uintptr_t> expect_a[kReaders];
  std::atomic<uintptr_t> expect_b[kReaders];
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const int tid = runtime::my_tid();
      ea.attach(tid);
      eb.attach(tid);
      const auto va = 0xA0000 + 16 * static_cast<uintptr_t>(tid);
      const auto vb = 0xB0000 + 16 * static_cast<uintptr_t>(tid);
      ea.reserve_local(tid, 0, va);
      eb.reserve_local(tid, 0, vb);
      expect_a[i].store(va);
      expect_b[i].store(vb);
      up.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      eb.detach(tid);
      ea.detach(tid);
    });
  }
  while (up.load() < kReaders) std::this_thread::yield();

  std::atomic<int> attached{0};
  std::atomic<int> arrived{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> handshakes{0};
  // Worker 0 reclaims in engine A, worker 1 in engine B; a barrier per
  // round releases both handshakes together so they overlap. Rounds
  // repeat until some handshake joined the other engine's wave (checked
  // after the barrier so both workers always agree on the round count).
  test::run_threads(2, [&](int w) {
    PopEngine& mine = w == 0 ? ea : eb;
    const int tid = runtime::my_tid();
    mine.attach(tid);
    attached.fetch_add(1);
    while (attached.load() < 2) std::this_thread::yield();
    for (int r = 0; r < kMaxRounds; ++r) {
      arrived.fetch_add(1);
      while (arrived.load() < 2 * (r + 1)) std::this_thread::yield();
      // A worker sets `stop` only before its barrier arrival, so both
      // observe the same value here and exit on the same round.
      if (stop.load()) break;
      mine.ping_all_and_wait(tid);
      handshakes.fetch_add(1);
      if (ea.waves_joined() + eb.waves_joined() > 0) stop.store(true);
    }
    mine.detach(tid);
  });

  // Every handshake completed (we got here), and the reservations of
  // both domains are visible after the storm.
  uintptr_t shared[runtime::kMaxThreads * smr::kMaxSlots];
  const int self = runtime::my_tid();
  ea.attach(self);
  eb.attach(self);
  ea.ping_all_and_wait(self);
  int n = ea.collect_shared(shared);
  for (int i = 0; i < kReaders; ++i) {
    bool found = false;
    for (int j = 0; j < n; ++j) found = found || shared[j] == expect_a[i].load();
    EXPECT_TRUE(found) << "engine A reservation of reader " << i << " missing";
  }
  eb.ping_all_and_wait(self);
  n = eb.collect_shared(shared);
  for (int i = 0; i < kReaders; ++i) {
    bool found = false;
    for (int j = 0; j < n; ++j) found = found || shared[j] == expect_b[i].load();
    EXPECT_TRUE(found) << "engine B reservation of reader " << i << " missing";
  }
  ea.detach(self);
  eb.detach(self);

  // Coalescing across engines: some handshake rode a wave the *other*
  // domain's reclaimer led (the loop above ran until it happened).
  EXPECT_GT(ea.waves_joined() + eb.waves_joined(), 0u)
      << "no cross-domain wave coalesced in " << kMaxRounds << " rounds";
  // Accounting: led + joined covers every handshake the engines ran
  // (the workers' rounds plus the two verification handshakes above).
  EXPECT_EQ(ea.waves_led() + ea.waves_joined() + eb.waves_led() +
                eb.waves_joined(),
            handshakes.load() + 2);

  release.store(true);
  for (auto& t : readers) t.join();
}

TEST(PopEngine, PingsReceivedCounterTracksHandlers) {
  PopEngine e(4);
  std::atomic<bool> up{false}, release{false};
  std::atomic<int> rtid{-1};
  std::thread reader([&] {
    const int tid = runtime::my_tid();
    e.attach(tid);
    rtid.store(tid);
    up.store(true);
    while (!release.load()) std::this_thread::yield();
    e.detach(tid);
  });
  while (!up.load()) std::this_thread::yield();
  const int self = runtime::my_tid();
  e.attach(self);
  const uint64_t before = e.pings_received(rtid.load());
  e.ping_all_and_wait(self);
  e.ping_all_and_wait(self);
  // The handler bumps `pings` after the publish the wait returns on, so
  // the second handler's bump may land just after the wave completes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (e.pings_received(rtid.load()) < before + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(e.pings_received(rtid.load()), before + 2);
  release.store(true);
  reader.join();
  e.detach(self);
}

}  // namespace
}  // namespace pop::core
