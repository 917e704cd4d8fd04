// The disabled-path cost contract: with its channel off, a per-op hook
// (one relaxed load + predictable branch) must add under 2% to a ~100 ns
// operation. Two hooks are held to it: the observability layer's
// record_latency and the contract auditor's audit::on() gate, which
// retire_push and OpGuard compile against.
//
// Methodology: time many pairs of rounds of the same synthetic op loop,
// one round without the hook and one with it, and take the MEDIAN of the
// per-pair time ratios. Rounds are timed in thread CPU time, so time
// spent descheduled under a loaded machine (ctest -j) never counts. The
// two rounds of a pair run back to back (in alternating order), so they
// share the machine's state — a co-runner's cache pressure, the clock
// frequency — and the ratio cancels it; the median discards the pairs a
// burst of interference split. A minimum over rounds does not: it
// compares the quietest moment of one loop with that of the other, and
// under load those moments differ by more than the bound.
//
// Sanitizer builds instrument the atomic load into a runtime call, so the
// production "<2%" bound is only asserted in uninstrumented builds; under
// ASan/TSan the test still runs but with a loose sanity bound.
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "smr/audit.hpp"

namespace pop::obs {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kMaxPct = 75.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kMaxPct = 75.0;
#else
constexpr double kMaxPct = 2.0;
#endif
#else
constexpr double kMaxPct = 2.0;
#endif

// ~100 ns of dependent integer work: 48 chained splitmix rounds whose
// result feeds the next, so the compiler can neither vectorize nor
// shorten the chain.
inline uint64_t synthetic_op(uint64_t x) {
  for (int i = 0; i < 48; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
  }
  return x;
}

inline void keep(uint64_t& v) { asm volatile("" : "+r"(v)); }

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

template <bool kHooked, class Hook>
uint64_t time_loop_ns(int ops, Hook hook, uint64_t& state) {
  const uint64_t t0 = thread_cpu_ns();
  uint64_t x = state;
  for (int i = 0; i < ops; ++i) {
    x = synthetic_op(x);
    if constexpr (kHooked) x = hook(x);
    keep(x);
  }
  state = x;
  return thread_cpu_ns() - t0;
}

// Expects `hook` to add at most kMaxPct to the synthetic op: the median
// of the paired hooked/plain round-time ratios.
template <class Hook>
void expect_disabled_hook_under_bound(const char* what, Hook hook) {
  const int kOps = 1 << 11;
  const int kPairs = 161;
  uint64_t state = 12345;

  // Warm up both paths (branch predictors, frequency) before measuring.
  time_loop_ns<false>(kOps, hook, state);
  time_loop_ns<true>(kOps, hook, state);

  std::vector<double> ratios;
  for (int r = 0; r < kPairs; ++r) {
    uint64_t plain, hooked;
    if (r % 2 == 0) {
      plain = time_loop_ns<false>(kOps, hook, state);
      hooked = time_loop_ns<true>(kOps, hook, state);
    } else {
      hooked = time_loop_ns<true>(kOps, hook, state);
      plain = time_loop_ns<false>(kOps, hook, state);
    }
    ASSERT_GT(plain, 0u);
    ratios.push_back(static_cast<double>(hooked) / static_cast<double>(plain));
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  const double overhead_pct = 100.0 * (ratios[kPairs / 2] - 1.0);
  EXPECT_LE(overhead_pct, kMaxPct)
      << "disabled " << what << " overhead " << overhead_pct
      << "% (median of " << kPairs << " paired rounds of " << kOps
      << " ops)";
}

TEST(ObsOverhead, DisabledHookCostsUnderThreshold) {
  set_latency(false);
  disarm_trace();
  ASSERT_FALSE(latency_on());
  // The exact per-op hook the scenario engine's hot loop compiles
  // against; latency is off, so this is the disabled path.
  expect_disabled_hook_under_bound("record_latency", [](uint64_t x) {
    record_latency(LatOp::kGet, x & 0xff);
    return x;
  });
}

TEST(ObsOverhead, DisabledAuditGateCostsUnderThreshold) {
  smr::audit::set_enabled(false);
  ASSERT_FALSE(smr::audit::on());
  expect_disabled_hook_under_bound("audit::on() gate", [](uint64_t x) {
    return smr::audit::on() ? x + 1 : x;
  });
}

}  // namespace
}  // namespace pop::obs
