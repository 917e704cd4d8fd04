// ServiceStats: the per-shard statistics snapshot the sharded service
// layer exposes. Each shard is an independent ISet with its own SMR
// domain; the snapshot rolls their scheme counters up into one total and
// keeps the per-shard breakdown (routed operations, unreclaimed nodes)
// so load skew — a hot shard under Zipfian keys — is observable.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "smr/smr_config.hpp"

namespace pop::service {

struct ShardStats {
  int shard = 0;
  // Operations routed to this shard since construction (get + put +
  // insert + remove), counted at the routing layer.
  uint64_t ops = 0;
  // KV outcome breakdown, also counted at the routing layer: lookup hit
  // ratio and the insert/replace split of put traffic (each put_replace
  // retired one displaced node in this shard's domain).
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t put_inserts = 0;
  uint64_t put_replaces = 0;
  // Resize activity of this shard's structure (RHHT shards resize
  // independently — each shard's descriptor CASes on its own load):
  // grows + shrinks, and the bucket count at snapshot time (a fixed
  // HMHT shard reports its static bucket count with resizes == 0).
  uint64_t resizes = 0;
  uint64_t buckets_final = 0;
  smr::StatsSnapshot smr;  // the shard's own domain counters
};

// A counter with one writer and any number of readers: a relaxed atomic
// bumped by a load then a store, which compiles to a plain increment (no
// locked instruction) yet lets another thread read it without a race.
class SwmrCounter {
 public:
  SwmrCounter(uint64_t v = 0) : v_(v) {}  // NOLINT: converts like a u64
  SwmrCounter(const SwmrCounter& o) : v_(o) {}
  SwmrCounter& operator=(const SwmrCounter& o) { return *this = uint64_t{o}; }
  SwmrCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  operator uint64_t() const { return v_.load(std::memory_order_relaxed); }
  SwmrCounter& operator+=(uint64_t d) { return *this = *this + d; }
  SwmrCounter& operator++() { return *this += 1; }
  uint64_t operator++(int) {
    const uint64_t v = *this;
    *this = v + 1;
    return v;
  }

 private:
  std::atomic<uint64_t> v_;
};

// Per-connection routed-op counters kept by the networked front end
// (src/net/): one instance per live connection, written only by the
// worker thread that owns the connection (the same SWMR discipline as
// every stats surface here) while total_stats() may read it from any
// thread, rolled up into the server totals and emitted as kind-tagged
// "conn" JSONL rows by the loadgen/server rails.
struct ConnectionStats {
  uint64_t conn_id = 0;  // set before the connection is published
  SwmrCounter ops;       // pings + gets + puts + dels
  SwmrCounter pings;
  SwmrCounter gets;
  SwmrCounter get_hits;
  SwmrCounter puts;
  SwmrCounter put_replaced;
  SwmrCounter dels;
  SwmrCounter del_hits;
  // Pipeline shape actually observed: batches is the number of SMR batch
  // brackets drained for this connection, max_batch the deepest one.
  SwmrCounter batches;
  SwmrCounter max_batch;
  SwmrCounter protocol_errors;

  void accumulate(const ConnectionStats& o) {
    ops += o.ops;
    pings += o.pings;
    gets += o.gets;
    get_hits += o.get_hits;
    puts += o.puts;
    put_replaced += o.put_replaced;
    dels += o.dels;
    del_hits += o.del_hits;
    batches += o.batches;
    max_batch = o.max_batch > max_batch ? o.max_batch : max_batch;
    protocol_errors += o.protocol_errors;
  }
};

struct ServiceStats {
  std::vector<ShardStats> shards;
  smr::StatsSnapshot smr;  // roll-up across all shards
  uint64_t ops_total = 0;
  uint64_t get_hits_total = 0;
  uint64_t get_misses_total = 0;
  uint64_t put_inserts_total = 0;
  uint64_t put_replaces_total = 0;
  uint64_t resizes_total = 0;
  uint64_t buckets_total = 0;  // sum of per-shard bucket counts
  // Process-wide pool occupancy at snapshot time (the pool is shared by
  // every shard's domain, so blocks are not separable per shard).
  uint64_t pool_live_blocks = 0;

  uint64_t unreclaimed() const { return smr.unreclaimed(); }

  // Max/min routed-op counts over shards: the skew a hot shard produces.
  uint64_t ops_max_shard() const {
    uint64_t m = 0;
    for (const auto& s : shards) m = s.ops > m ? s.ops : m;
    return m;
  }
  uint64_t ops_min_shard() const {
    if (shards.empty()) return 0;
    uint64_t m = UINT64_MAX;
    for (const auto& s : shards) m = s.ops < m ? s.ops : m;
    return m;
  }
};

}  // namespace pop::service
