// The sharded service layer: routing is deterministic and total, a
// 1-shard map is operation-for-operation equivalent to the plain ISet it
// wraps, cross-shard concurrent histories stay linearizable per key,
// every scheme's per-shard domains balance the pool on teardown, and
// churned threads migrating between shards (attach/detach on many
// domains, recycled tids) stay safe.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "ds/iset.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_registry.hpp"
#include "service/sharded_map.hpp"
#include "../support/test_util.hpp"

namespace pop::service {
namespace {

ShardedMapConfig small_cfg(int shards, ShardHash hash = ShardHash::kSplitMix64) {
  ShardedMapConfig cfg;
  cfg.shards = shards;
  cfg.hash = hash;
  cfg.set.capacity = 512;
  cfg.set.smr.retire_threshold = 16;
  cfg.set.smr.epoch_freq = 4;
  return cfg;
}

TEST(ShardedMap, ModuloHashRoutesByRemainder) {
  auto m = ShardedMap::create("HML", "EBR", small_cfg(4, ShardHash::kModulo));
  ASSERT_NE(m, nullptr);
  for (uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(m->shard_of(k), static_cast<int>(k % 4));
  }
  m->detach_thread();
}

TEST(ShardedMap, SplitMixHashCoversEveryShard) {
  auto m = ShardedMap::create("HML", "EBR", small_cfg(8));
  ASSERT_NE(m, nullptr);
  std::set<int> hit;
  for (uint64_t k = 0; k < 4096; ++k) hit.insert(m->shard_of(k));
  EXPECT_EQ(hit.size(), 8u) << "some shard unreachable by the hash";
  // Determinism: the same key always routes to the same shard.
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(m->shard_of(k), m->shard_of(k));
  }
  m->detach_thread();
}

TEST(ShardedMap, UnknownNamesReturnNullAndSayWhichNameWasBad) {
  // The underlying factory's one-line diagnosis must surface through the
  // service-layer constructors too.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ShardedMap::create("NOPE", "EBR", small_cfg(2)), nullptr);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "unknown data structure 'NOPE'"),
            std::string::npos);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ShardedMap::create("HML", "NOPE", small_cfg(2)), nullptr);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "unknown SMR scheme 'NOPE'"),
            std::string::npos);
  EXPECT_EQ(make_service_set("NOPE", "EBR", ds::SetConfig{}, 4), nullptr);
  EXPECT_EQ(make_service_set("HML", "NOPE", ds::SetConfig{}, 1), nullptr);
}

TEST(ShardedMap, FactoryReturnsPlainSetForOneShard) {
  ds::SetConfig cfg;
  cfg.capacity = 128;
  auto one = make_service_set("HML", "EBR", cfg, 1);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(dynamic_cast<ShardedMap*>(one.get()), nullptr)
      << "shards=1 must take the zero-overhead monolithic path";
  auto four = make_service_set("HML", "EBR", cfg, 4);
  ASSERT_NE(four, nullptr);
  EXPECT_NE(dynamic_cast<ShardedMap*>(four.get()), nullptr);
  one->detach_thread();
  four->detach_thread();
}

TEST(ShardedMap, OneShardMatchesPlainSetOperationForOperation) {
  // The same pseudo-random operation tape must produce identical return
  // values and an identical final set through a 1-shard map and the plain
  // structure it wraps.
  ds::SetConfig cfg;
  cfg.capacity = 256;
  cfg.smr.retire_threshold = 16;
  auto plain = ds::make_set("HML", "EBR", cfg);
  ShardedMapConfig scfg = small_cfg(1);
  scfg.set = cfg;
  auto sharded = ShardedMap::create("HML", "EBR", scfg);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(sharded, nullptr);

  runtime::Xoshiro256 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.next_below(128);
    const uint64_t dice = rng.next_below(100);
    if (dice < 40) {
      EXPECT_EQ(plain->insert(k), sharded->insert(k)) << "op " << i;
    } else if (dice < 80) {
      EXPECT_EQ(plain->erase(k), sharded->erase(k)) << "op " << i;
    } else {
      EXPECT_EQ(plain->contains(k), sharded->contains(k)) << "op " << i;
    }
  }
  EXPECT_EQ(plain->size_slow(), sharded->size_slow());
  for (uint64_t k = 0; k < 128; ++k) {
    EXPECT_EQ(plain->contains(k), sharded->contains(k)) << "key " << k;
  }
  plain->detach_thread();
  sharded->detach_thread();
}

TEST(ShardedMap, CrossShardConcurrentHistoryIsLinearizablePerKey) {
  // Concurrent mixed ops spanning every shard: successful inserts minus
  // successful erases must equal the final size (per-key linearizability
  // composed over shards — sharding must not lose or duplicate keys).
  auto m = ShardedMap::create("HMHT", "EpochPOP", small_cfg(4));
  ASSERT_NE(m, nullptr);
  std::atomic<int64_t> net{0};
  constexpr int kThreads = 4;
  constexpr int kOps = 6000;
  test::run_threads(kThreads, [&](int w) {
    runtime::Xoshiro256 rng(91 + w);
    for (int i = 0; i < kOps; ++i) {
      const uint64_t k = rng.next_below(256);
      if (rng.percent(50)) {
        if (m->insert(k)) net.fetch_add(1);
      } else if (rng.percent(50)) {
        if (m->erase(k)) net.fetch_sub(1);
      } else {
        (void)m->contains(k);
      }
    }
    m->detach_thread();
  });
  EXPECT_EQ(m->size_slow(), static_cast<uint64_t>(net.load()));

  const auto stats = m->service_stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.ops_total, static_cast<uint64_t>(kThreads) * kOps);
  uint64_t ops_sum = 0, retired_sum = 0;
  for (const auto& s : stats.shards) {
    ops_sum += s.ops;
    retired_sum += s.smr.retired;
    EXPECT_GT(s.ops, 0u) << "shard " << s.shard << " saw no traffic";
  }
  EXPECT_EQ(ops_sum, stats.ops_total);
  EXPECT_EQ(retired_sum, stats.smr.retired) << "roll-up != sum of shards";
  m->detach_thread();
}

class ShardedLeakBalance : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedLeakBalance, PoolBalancesAfterShardedTeardown) {
  // Per-shard leak accounting: after a sharded map (N independent
  // domains) is destroyed, every pool block any shard allocated is back
  // on a free list — for every scheme, including the signal-driven ones.
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    auto m = ShardedMap::create("HML", GetParam(), small_cfg(3));
    ASSERT_NE(m, nullptr);
    std::atomic<int> arrived{0};
    test::run_threads(3, [&](int w) {
      (void)runtime::my_tid();
      arrived.fetch_add(1);
      while (arrived.load() < 3) std::this_thread::yield();
      runtime::Xoshiro256 rng(57 + w);
      for (int i = 0; i < 2000; ++i) {
        const uint64_t k = rng.next_below(128);
        const uint64_t dice = rng.next_below(100);
        if (dice < 40) {
          m->insert(k);
        } else if (dice < 80) {
          m->erase(k);
        } else {
          (void)m->contains(k);
        }
      }
      m->detach_thread();
    });
    // Before teardown the per-shard unreclaimed counts must sum to the
    // roll-up (the snapshot is consistent shard by shard).
    const auto stats = m->service_stats();
    uint64_t unreclaimed_sum = 0;
    for (const auto& s : stats.shards) unreclaimed_sum += s.smr.unreclaimed();
    EXPECT_EQ(unreclaimed_sum, stats.unreclaimed());
    m->detach_thread();
  }  // all shards (and their domains) destroyed here
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks)
      << "pool imbalance across sharded teardown for HML/" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ShardedLeakBalance,
                         ::testing::ValuesIn(ds::all_smr_names()),
                         [](const auto& info) { return info.param; });

TEST(ShardedMap, ChurningThreadsMigrateBetweenShards) {
  // Thread churn across a sharded map: waves of short-lived workers run
  // mixed ops spanning all shards, detach from every shard's domain, and
  // exit; fresh threads recycle their registry tids against the same
  // shards. No wave may wedge a ping handshake or corrupt a shard.
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    auto m = ShardedMap::create("HML", "HazardPtrPOP", small_cfg(4));
    ASSERT_NE(m, nullptr);
    std::atomic<int64_t> net{0};
    for (int wave = 0; wave < 6; ++wave) {
      test::run_threads(3, [&](int w) {
        runtime::Xoshiro256 rng(1000 * wave + w);
        for (int i = 0; i < 1500; ++i) {
          const uint64_t k = rng.next_below(192);
          if (rng.percent(50)) {
            if (m->insert(k)) net.fetch_add(1);
          } else {
            if (m->erase(k)) net.fetch_sub(1);
          }
        }
        m->detach_thread();  // all four domains; exit recycles the tid
      });
    }
    EXPECT_EQ(m->size_slow(), static_cast<uint64_t>(net.load()));
    m->detach_thread();
  }
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.allocated_blocks - before.allocated_blocks,
            after.freed_blocks - before.freed_blocks);
}

TEST(ShardedMap, KvCountersTrackOutcomesPerShard) {
  auto m = ShardedMap::create("HML", "EBR", small_cfg(4));
  ASSERT_NE(m, nullptr);
  // 64 fresh puts, 32 replacing puts, then 32 hits + 32 misses.
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(m->put(k, k + 1), ds::PutResult::kInserted);
  }
  for (uint64_t k = 0; k < 32; ++k) {
    EXPECT_EQ(m->put(k, k + 100), ds::PutResult::kReplaced);
  }
  for (uint64_t k = 0; k < 32; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(m->get(k, &v));
    EXPECT_EQ(v, k + 100) << "get must return the latest completed put";
  }
  for (uint64_t k = 1000; k < 1032; ++k) {
    EXPECT_FALSE(m->get(k, nullptr));
  }
  const auto stats = m->service_stats();
  EXPECT_EQ(stats.put_inserts_total, 64u);
  EXPECT_EQ(stats.put_replaces_total, 32u);
  EXPECT_EQ(stats.get_hits_total, 32u);
  EXPECT_EQ(stats.get_misses_total, 32u);
  EXPECT_EQ(stats.ops_total, 64u + 32u + 32u + 32u);
  // The per-shard breakdown must sum to the roll-up.
  uint64_t hits = 0, misses = 0, pins = 0, prepl = 0;
  for (const auto& s : stats.shards) {
    hits += s.get_hits;
    misses += s.get_misses;
    pins += s.put_inserts;
    prepl += s.put_replaces;
  }
  EXPECT_EQ(hits, stats.get_hits_total);
  EXPECT_EQ(misses, stats.get_misses_total);
  EXPECT_EQ(pins, stats.put_inserts_total);
  EXPECT_EQ(prepl, stats.put_replaces_total);
  // Replaces retire through the shard's own domain.
  EXPECT_GE(stats.smr.retired, 32u);
  m->detach_thread();
}

TEST(ShardedMap, PressureCountersSurfacePerShardAndRollUp) {
  // The fault-recovery counters (pressure_events, forced_handshakes, and
  // friends) must surface per shard through ServiceStats, not just on the
  // monolithic roll-up — a hot shard hitting the pressure backstop should
  // be attributable. Route every mutation to shard 2 via the modulo hash,
  // disable the cadence sweep (huge retire_threshold), and set a tiny
  // pressure bound so the backstop is the only reclamation trigger.
  ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.hash = ShardHash::kModulo;
  cfg.set.capacity = 512;
  cfg.set.smr.retire_threshold = uint64_t{1} << 20;
  cfg.set.smr.pressure_bound = 48;
  auto m = ShardedMap::create("HML", "EBR", cfg);
  ASSERT_NE(m, nullptr);
  const int target = 2;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = static_cast<uint64_t>(4 * (i % 97) + target);
    m->insert(k);
    m->remove(k);  // each removal retires a node on shard 2 only
  }
  const auto stats = m->service_stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_GT(stats.shards[target].smr.pressure_events, 0u)
      << "the backstop never fired on the hot shard";
  EXPECT_GT(stats.shards[target].smr.forced_handshakes, 0u);
  for (int s = 0; s < 4; ++s) {
    if (s == target) continue;
    EXPECT_EQ(stats.shards[s].smr.pressure_events, 0u)
        << "idle shard " << s << " reported pressure";
  }
  uint64_t sum_pressure = 0, sum_forced = 0, sum_waves = 0, sum_reaped = 0;
  for (const auto& s : stats.shards) {
    sum_pressure += s.smr.pressure_events;
    sum_forced += s.smr.forced_handshakes;
    sum_waves += s.smr.waves_timed_out;
    sum_reaped += s.smr.tids_reaped;
  }
  EXPECT_EQ(stats.smr.pressure_events, sum_pressure);
  EXPECT_EQ(stats.smr.forced_handshakes, sum_forced);
  EXPECT_EQ(stats.smr.waves_timed_out, sum_waves);
  EXPECT_EQ(stats.smr.tids_reaped, sum_reaped);
  m->detach_thread();
}

TEST(ShardedMap, SeventeenSignalShardsReclaim) {
  // Every shard is a domain, and so one signal-bus client per thread: a
  // thread that touches 17 HazardPtrPOP shards holds 17 clients.
  auto m = ShardedMap::create("HML", "HazardPtrPOP", small_cfg(17));
  ASSERT_NE(m, nullptr);
  std::atomic<int> attached{0};
  test::run_threads(2, [&](int w) {
    // Touch every shard, then wait for the peer: each wave has a thread
    // to ping.
    for (uint64_t k = 0; k < 256; ++k) (void)m->contains(k);
    attached.fetch_add(1);
    while (attached.load() < 2) std::this_thread::yield();
    for (uint64_t i = 0; i < 2000; ++i) {
      const uint64_t k = 2 * (i % 256) + static_cast<uint64_t>(w);
      m->insert(k);
      m->remove(k);
    }
    m->detach_thread();
  });
  const auto stats = m->service_stats();
  ASSERT_EQ(stats.shards.size(), 17u);
  for (const auto& s : stats.shards) {
    EXPECT_GT(s.smr.freed, 0u) << "shard " << s.shard << " never reclaimed";
  }
  EXPECT_GT(stats.smr.signals_sent, 0u);
  EXPECT_EQ(stats.smr.waves_timed_out, 0u);
}

TEST(ShardedMap, OneShardMatchesPlainMapOperationForOperation) {
  // The KV surface through a 1-shard map must be op-for-op identical to
  // the plain structure (same returns, same values) — the sharded layer
  // adds routing and counters, never semantics.
  ds::SetConfig cfg;
  cfg.capacity = 256;
  cfg.smr.retire_threshold = 16;
  auto plain = ds::make_kv("HML", "EBR", cfg);
  ShardedMapConfig scfg = small_cfg(1);
  scfg.set = cfg;
  auto sharded = ShardedMap::create("HML", "EBR", scfg);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(sharded, nullptr);
  runtime::Xoshiro256 rng(4242);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t k = rng.next_below(128);
    const uint64_t dice = rng.next_below(100);
    if (dice < 40) {
      const uint64_t v = rng.next();
      EXPECT_EQ(plain->put(k, v), sharded->put(k, v)) << "op " << i;
    } else if (dice < 70) {
      EXPECT_EQ(plain->remove(k), sharded->remove(k)) << "op " << i;
    } else {
      uint64_t pv = 0, sv = 0;
      const bool ph = plain->get(k, &pv);
      const bool sh = sharded->get(k, &sv);
      EXPECT_EQ(ph, sh) << "op " << i;
      if (ph && sh) {
        EXPECT_EQ(pv, sv) << "op " << i;
      }
    }
  }
  EXPECT_EQ(plain->size_slow(), sharded->size_slow());
  plain->detach_thread();
  sharded->detach_thread();
}

TEST(ShardedMap, CapacitySplitsAcrossShards) {
  // The per-shard capacity divides the configured total so a sharded
  // hash table's footprint tracks the monolithic one's.
  ShardedMapConfig cfg = small_cfg(4);
  cfg.set.capacity = 1 << 12;
  auto m = ShardedMap::create("HMHT", "EBR", cfg);
  ASSERT_NE(m, nullptr);
  for (uint64_t k = 0; k < 2048; ++k) EXPECT_TRUE(m->insert(k));
  EXPECT_EQ(m->size_slow(), 2048u);
  for (uint64_t k = 0; k < 2048; ++k) EXPECT_TRUE(m->contains(k));
  m->detach_thread();
}

}  // namespace
}  // namespace pop::service
