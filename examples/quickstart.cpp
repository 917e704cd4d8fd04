// Quickstart: a lock-free key-value map with HazardPtrPOP reclamation.
//
// Build & run:  ./examples/quickstart
//
// Shows the whole public API surface a typical user needs: construct a
// data structure over a reclamation domain, run get/put/remove from
// several threads, detach threads, read the reclamation stats. put is
// insert-or-replace — a replace swaps in a fresh node and retires the
// displaced one (values are never updated in place, because concurrent
// readers may still hold the old node), so update-heavy KV traffic is
// itself a reclamation workload.
#include <cstdio>
#include <thread>
#include <vector>

#include "ds/hm_list.hpp"
#include "smr/hazard_domain.hpp"

int main() {
  // Every data structure owns one reclamation domain; pick the scheme by
  // template parameter. HazardPtrPOP = hazard pointers without per-read
  // fences (reservations published on demand via POSIX signals).
  pop::smr::SmrConfig cfg;
  cfg.retire_threshold = 256;  // retires buffered before a reclaim pass
  pop::ds::HmList<pop::core::HazardPtrPopDomain> map(cfg);

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10'000;
  constexpr uint64_t kRange = 1024;

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&map, w] {
      // Every thread rewrites, reads back, and evicts keys shared with
      // everyone else; each winning rewrite retires the displaced node.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = (i * kThreads + static_cast<uint64_t>(w)) % kRange;
        map.put(key, i);                    // insert-or-replace
        uint64_t val = 0;
        (void)map.get((key * 7) % kRange, &val);
        map.erase((key * 13) % kRange);
      }
      map.domain().detach();  // let reclaimers stop waiting on this thread
    });
  }
  for (auto& t : workers) t.join();

  // Single-threaded now: read-your-writes in one picture (key 4096 is
  // outside the workers' range, so the first put is a genuine insert).
  const auto r1 = map.put(4096, 70);
  const auto r2 = map.put(4096, 71);  // displaces (and retires) the 70 node
  uint64_t val = 0;
  const bool hit = map.get(4096, &val);
  std::printf("quickstart: put#1=%s put#2=%s get=%s val=%llu\n",
              pop::ds::put_result_name(r1), pop::ds::put_result_name(r2),
              hit ? "hit" : "miss", static_cast<unsigned long long>(val));

  const auto stats = map.domain().stats();
  std::printf("quickstart: final size     = %llu\n",
              static_cast<unsigned long long>(map.size_slow()));
  std::printf("quickstart: nodes retired  = %llu\n",
              static_cast<unsigned long long>(stats.retired));
  std::printf("quickstart: nodes freed    = %llu\n",
              static_cast<unsigned long long>(stats.freed));
  std::printf("quickstart: signals sent   = %llu (only when reclaiming)\n",
              static_cast<unsigned long long>(stats.signals_sent));
  std::printf("quickstart: sorted+unique  = %s\n",
              map.sorted_unique_slow() ? "yes" : "NO (bug!)");
  return 0;
}
