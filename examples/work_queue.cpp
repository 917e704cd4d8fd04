// work_queue: a producer/consumer pipeline on the Michael-Scott queue —
// the original hazard-pointer showcase — under HazardEraPOP.
//
// Every dequeue retires a node, so the queue reclaims at the full
// operation rate; eras keep the reservation footprint at two slots per
// thread regardless of queue length, and publish-on-ping keeps era
// reservations off the dequeue fast path.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "ds/ms_queue.hpp"
#include "smr/hazard_domain.hpp"

int main() {
  pop::smr::SmrConfig cfg;
  cfg.retire_threshold = 256;
  pop::ds::MsQueue<pop::core::HazardEraPopDomain> queue(cfg);

  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr uint64_t kItemsPerProducer = 50'000;

  std::atomic<uint64_t> produced_sum{0}, consumed_sum{0};
  std::atomic<uint64_t> consumed_n{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      uint64_t sum = 0;
      for (uint64_t i = 1; i <= kItemsPerProducer; ++i) {
        const uint64_t item = static_cast<uint64_t>(p) * kItemsPerProducer + i;
        queue.enqueue(item);
        sum += item;
      }
      produced_sum.fetch_add(sum);
      queue.domain().detach();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t sum = 0, n = 0;
      const uint64_t target = kProducers * kItemsPerProducer;
      while (consumed_n.load(std::memory_order_relaxed) < target) {
        if (auto v = queue.dequeue()) {
          sum += *v;
          ++n;
          consumed_n.fetch_add(1, std::memory_order_relaxed);
        }
      }
      consumed_sum.fetch_add(sum);
      queue.domain().detach();
    });
  }
  for (auto& t : threads) t.join();

  const auto s = queue.domain().stats();
  std::printf("work_queue: items consumed  = %llu\n",
              static_cast<unsigned long long>(consumed_n.load()));
  std::printf("work_queue: checksum        = %s (produced %llu, consumed "
              "%llu)\n",
              produced_sum.load() == consumed_sum.load() ? "OK" : "MISMATCH",
              static_cast<unsigned long long>(produced_sum.load()),
              static_cast<unsigned long long>(consumed_sum.load()));
  std::printf("work_queue: nodes retired   = %llu, freed = %llu, "
              "unreclaimed = %llu\n",
              static_cast<unsigned long long>(s.retired),
              static_cast<unsigned long long>(s.freed),
              static_cast<unsigned long long>(s.unreclaimed()));
  return produced_sum.load() == consumed_sum.load() ? 0 : 1;
}
