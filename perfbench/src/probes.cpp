#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "core/pop_engine.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/thread_registry.hpp"
#include "service/sharded_map.hpp"
#include "smr/all.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 5;

// Keeps the protect loop's loads observable.
std::atomic<uint64_t> g_sink{0};

struct Node : pop::smr::Reclaimable {
  explicit Node(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

// Runs body() kReps times under a span named `name`; returns the median
// of per-rep ns/unit, where body returns the number of units it did.
template <class Body>
double median_ns_per_unit(const char* name, Body&& body) {
  std::vector<double> per;
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan span(name);
    const uint64_t t0 = now_ns();
    const uint64_t units = body();
    const uint64_t t1 = now_ns();
    per.push_back(static_cast<double>(t1 - t0) /
                  static_cast<double>(std::max<uint64_t>(units, 1)));
  }
  return median(per);
}

template <class D>
void probe_scheme(const std::string& s, std::map<std::string, double>* out) {
  // Empty operation bracket.
  {
    auto d = std::make_unique<D>();
    constexpr uint64_t kN = 200000;
    (*out)["smr.bracket_ns." + s] = median_ns_per_unit("smr.bracket", [&] {
      for (uint64_t i = 0; i < kN; ++i) {
        typename D::Guard g(*d);
      }
      return kN;
    });
    d->detach();
  }
  // protect() along a 64-edge chain, like a list traversal.
  {
    auto d = std::make_unique<D>();
    constexpr int kChain = 64;
    constexpr uint64_t kWalks = 4000;
    std::vector<Node*> nodes;
    std::unique_ptr<std::atomic<Node*>[]> edges(new std::atomic<Node*>[kChain]);
    for (int i = 0; i < kChain; ++i) {
      nodes.push_back(d->template create<Node>(static_cast<uint64_t>(i)));
      edges[i].store(nodes.back(), std::memory_order_relaxed);
    }
    uint64_t sink = 0;
    (*out)["smr.protect_ns." + s] = median_ns_per_unit("smr.protect", [&] {
      for (uint64_t w = 0; w < kWalks; ++w) {
        typename D::Guard g(*d);
        for (int i = 0; i < kChain; ++i) sink += d->protect(i & 3, edges[i])->key;
      }
      return kWalks * kChain;
    });
    g_sink.store(sink, std::memory_order_relaxed);
    d->detach();
    for (Node* n : nodes) pop::smr::destroy_unpublished(n);
  }
  // Retire until freed: time per node freed by the scheme's own passes.
  {
    auto d = std::make_unique<D>();
    constexpr uint64_t kN = 32768;
    (*out)["smr.retire_free_ns." + s] =
        median_ns_per_unit("smr.retire_free", [&] {
          const uint64_t freed0 = d->stats().freed;
          uint64_t i = 0;
          while (d->stats().freed - freed0 < kN && i < 16 * kN) {
            for (int k = 0; k < 256; ++k, ++i) {
              typename D::Guard g(*d);
              d->retire(d->template create<Node>(i));
            }
          }
          return d->stats().freed - freed0;
        });
    d->detach();
  }
}

void probe_runtime(std::map<std::string, double>* out) {
  auto& reg = pop::runtime::ThreadRegistry::instance();
  const int tid = pop::runtime::my_tid();
  constexpr uint64_t kN = 1000000;
  (*out)["runtime.heartbeat_bump_ns"] =
      median_ns_per_unit("runtime.heartbeat_bump", [&] {
        for (uint64_t i = 0; i < kN; ++i) reg.heartbeat_bump(tid);
        return kN;
      });

  auto& pool = pop::runtime::PoolAllocator::instance();
  (*out)["runtime.alloc_free_ns"] =
      median_ns_per_unit("runtime.alloc_free", [&] {
        for (uint64_t i = 0; i < kN / 4; ++i) pool.deallocate(pool.allocate(64));
        return kN / 4;
      });

  // Remote splice: blocks owned by a live helper thread's heap, freed
  // here through one FreeBatch per rep.
  constexpr std::size_t kBlocks = 65536;
  std::vector<double> per;
  for (int r = 0; r < kReps; ++r) {
    std::vector<void*> blocks(kBlocks);
    std::atomic<int> stage{0};
    std::thread owner([&] {
      for (auto& b : blocks) b = pool.allocate(64);
      stage.store(1, std::memory_order_release);
      while (stage.load(std::memory_order_acquire) != 2) {
        std::this_thread::yield();
      }
    });
    while (stage.load(std::memory_order_acquire) != 1) std::this_thread::yield();
    {
      ScopedSpan span("runtime.free_batch");
      const uint64_t t0 = now_ns();
      {
        pop::runtime::PoolAllocator::FreeBatch fb;
        for (void* b : blocks) fb.add(b);
        fb.flush();
      }
      per.push_back(static_cast<double>(now_ns() - t0) / kBlocks);
    }
    stage.store(2, std::memory_order_release);
    owner.join();
  }
  (*out)["runtime.free_batch_ns_per_block"] = median(per);
}

void probe_ping_wave(std::map<std::string, double>* out) {
  std::vector<double> us;
  for (int peers = 1; peers <= 3; ++peers) {
    pop::core::PopEngine engine(4);
    std::atomic<bool> stop{false};
    std::atomic<int> up{0};
    std::vector<std::thread> ts;
    for (int i = 0; i < peers; ++i) {
      ts.emplace_back([&] {
        const int t = pop::runtime::my_tid();
        engine.attach(t);
        up.fetch_add(1);
        uintptr_t v = 0x1000;
        while (!stop.load(std::memory_order_relaxed)) {
          engine.reserve_local(t, 0, v);
          v += 16;
        }
        engine.detach(t);
      });
    }
    while (up.load() < peers) std::this_thread::yield();
    const int self = pop::runtime::my_tid();
    engine.attach(self);
    for (int w = 0; w < 200; ++w) {
      ScopedSpan span("core.ping_wave");
      const uint64_t t0 = now_ns();
      engine.ping_all_and_wait(self);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    engine.detach(self);
    stop.store(true);
    for (auto& t : ts) t.join();
  }
  (*out)["core.ping_wave_us.p50"] = quantile(us, 0.50);
  (*out)["core.ping_wave_us.p99"] = quantile(us, 0.99);
}

void probe_service(std::map<std::string, double>* out) {
  pop::service::ShardedMapConfig cfg;
  cfg.shards = 4;
  cfg.set.capacity = 1024;
  auto m = pop::service::ShardedMap::create("HMHT", "EpochPOP", cfg);
  if (!m) return;
  // Touch keys on every shard so the bracket attaches nothing new.
  for (uint64_t k = 0; k < 64; ++k) m->get(k, nullptr);
  constexpr uint64_t kN = 200000;
  (*out)["service.batch_bracket_ns"] =
      median_ns_per_unit("service.batch_bracket", [&] {
        for (uint64_t i = 0; i < kN; ++i) {
          m->batch_begin();
          m->batch_end();
        }
        return kN;
      });
  m->detach_thread();
}

}  // namespace

void run_probes(const std::vector<std::string>& schemes,
                std::map<std::string, double>* out) {
  probe_runtime(out);
  for (const auto& s : schemes) {
    if (s == "EBR") probe_scheme<pop::smr::EbrDomain>(s, out);
    if (s == "HP") probe_scheme<pop::smr::HpDomain>(s, out);
    if (s == "HazardPtrPOP") probe_scheme<pop::core::HazardPtrPopDomain>(s, out);
    if (s == "EpochPOP") probe_scheme<pop::core::EpochPopDomain>(s, out);
  }
  probe_ping_wave(out);
  probe_service(out);
}

}  // namespace perfbench
