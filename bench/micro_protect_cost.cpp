// Microbenchmark behind §2.1.2: the per-read cost of protect() for every
// scheme. The paper's perf analysis found HP searches spend ~50% of
// cycles on reading hazard pointers vs ~15% leaky; here the same effect
// appears as ns/protect — HP pays a StoreLoad fence per read, HPAsym a
// plain store, the POP family a private store, era schemes an era check,
// and EBR/NR/NBR nothing.
#include <benchmark/benchmark.h>

#include <atomic>

#include "smr/all.hpp"

namespace {

struct TNode : pop::smr::Reclaimable {
  explicit TNode(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

template <class Smr>
void BM_ProtectChain(benchmark::State& state) {
  Smr d;
  constexpr int kChain = 64;  // pointer-chase like a list traversal
  TNode* nodes[kChain];
  std::atomic<TNode*> edges[kChain];
  for (int i = 0; i < kChain; ++i) nodes[i] = d.template create<TNode>(i);
  for (int i = 0; i < kChain; ++i) edges[i].store(nodes[i]);

  for (auto _ : state) {
    typename Smr::Guard g(d);
    TNode* sink = nullptr;
    for (int i = 0; i < kChain; ++i) {
      sink = d.protect(i & 3, edges[i]);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kChain);
  state.counters["ns_per_protect"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kChain,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);

  for (int i = 0; i < kChain; ++i) pop::smr::destroy_unpublished(nodes[i]);
}

}  // namespace

BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::NrDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::HpDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::HpAsymDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::HeDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::EbrDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::IbrDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::NbrDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::smr::BrcDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::core::HazardPtrPopDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::core::HazardEraPopDomain);
BENCHMARK_TEMPLATE(BM_ProtectChain, pop::core::EpochPopDomain);

// Google Benchmark owns this binary's flags; an unknown one exits 2 like
// every other bench binary's malformed flag.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
