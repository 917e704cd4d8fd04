// LatencyHisto accuracy contract: the log-bucketed histogram keeps two
// significant digits (relative quantization error <= 1/64), snapshots
// merge associatively (so per-thread merges and phase-boundary diffs
// commute), and diff keeps the later max high-watermark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/latency_histo.hpp"

namespace pop::obs {
namespace {

uint64_t splitmix64(uint64_t& s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Log-uniform over [1, 2^40): every octave equally likely, the shape
// real latency distributions stress the bucket math with.
uint64_t log_uniform(uint64_t& s) {
  const int shift = static_cast<int>(splitmix64(s) % 40);
  return (uint64_t{1} << shift) | (splitmix64(s) & ((uint64_t{1} << shift) - 1));
}

TEST(LatencyHisto, BucketIndexIsMonotoneAndExactBelow128) {
  for (uint64_t v = 0; v < 128; ++v) {
    EXPECT_EQ(histo_bucket_index(v), v);
    EXPECT_EQ(histo_bucket_value(static_cast<uint32_t>(v)), v);
  }
  uint32_t prev = 0;
  for (uint64_t v = 0; v < (uint64_t{1} << 20); v += 37) {
    const uint32_t idx = histo_bucket_index(v);
    EXPECT_GE(idx, prev) << "index not monotone at v=" << v;
    EXPECT_LT(idx, kHistoBuckets);
    prev = idx;
  }
}

TEST(LatencyHisto, BucketMidpointWithinTwoSignificantDigits) {
  uint64_t seed = 42;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t v = log_uniform(seed) % kHistoCapNs + 1;
    const uint64_t mid = histo_bucket_value(histo_bucket_index(v));
    const double rel = std::fabs(static_cast<double>(mid) -
                                 static_cast<double>(v)) /
                       static_cast<double>(v);
    ASSERT_LE(rel, 1.0 / 64.0) << "v=" << v << " mid=" << mid;
  }
}

TEST(LatencyHisto, ValuesAboveCapSaturateButMaxStaysExact) {
  HistoSnapshot s;
  const uint64_t huge = kHistoCapNs * 3;
  s.add(huge);
  EXPECT_EQ(s.total, 1u);
  EXPECT_EQ(s.max_ns, huge);            // exact, not quantized
  EXPECT_EQ(s.percentile(100.0), huge);
  // p<100 reports the top bucket's midpoint (within 1/64 of the cap),
  // never something past max_ns.
  EXPECT_LE(s.percentile(50.0), huge);
  EXPECT_GE(s.percentile(50.0), kHistoCapNs - (kHistoCapNs >> 6));
}

TEST(LatencyHisto, MergeIsAssociativeAndCommutative) {
  uint64_t seed = 7;
  HistoSnapshot a, b, c;
  for (int i = 0; i < 5000; ++i) a.add(log_uniform(seed));
  for (int i = 0; i < 3000; ++i) b.add(log_uniform(seed));
  for (int i = 0; i < 1000; ++i) c.add(log_uniform(seed));

  HistoSnapshot ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  HistoSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  HistoSnapshot a_bc = a;
  a_bc.merge(bc);
  HistoSnapshot ba = b;     // b + a
  ba.merge(a);
  ba.merge(c);

  EXPECT_EQ(ab_c.total, a_bc.total);
  EXPECT_EQ(ab_c.max_ns, a_bc.max_ns);
  EXPECT_EQ(ab_c.counts, a_bc.counts);
  EXPECT_EQ(ab_c.counts, ba.counts);
}

TEST(LatencyHisto, PercentilesMatchExactSortedReference) {
  uint64_t seed = 1234;
  HistoSnapshot h;
  std::vector<uint64_t> exact;
  const int n = 100000;
  exact.reserve(n);
  for (int i = 0; i < n; ++i) {
    const uint64_t v = log_uniform(seed);
    h.add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());

  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    // Same rank convention as HistoSnapshot::percentile.
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const uint64_t truth = exact[rank - 1];
    const uint64_t approx = h.percentile(p);
    const double rel = std::fabs(static_cast<double>(approx) -
                                 static_cast<double>(truth)) /
                       static_cast<double>(truth);
    EXPECT_LE(rel, 1.0 / 64.0)
        << "p" << p << ": approx=" << approx << " exact=" << truth;
  }
  EXPECT_EQ(h.percentile(100.0), exact.back());
  EXPECT_EQ(HistoSnapshot{}.percentile(50.0), 0u);
}

TEST(LatencyHisto, DiffYieldsIntervalCountsAndLaterMax) {
  uint64_t seed = 9;
  HistoSnapshot before;
  for (int i = 0; i < 1000; ++i) before.add(log_uniform(seed) % 1000);
  HistoSnapshot after = before;
  for (int i = 0; i < 500; ++i) after.add(1000000 + i);

  const HistoSnapshot d = after.diff(before);
  EXPECT_EQ(d.total, 500u);
  // The lifetime max fell inside this window, so the window reports it.
  EXPECT_EQ(d.max_ns, after.max_ns);
  // Every diffed sample is from the second batch: p50 well above 1 ms.
  EXPECT_GE(d.percentile(50.0), 900000u);
}

TEST(LatencyHisto, DiffMaxIsTheWindowsOwnMax) {
  // Window 1 holds a 5 ms outlier, window 2 only sub-microsecond samples:
  // window 2's max must describe window 2, not the process lifetime.
  uint64_t seed = 21;
  HistoSnapshot t0;
  HistoSnapshot t1 = t0;
  for (int i = 0; i < 100; ++i) t1.add(log_uniform(seed) % 900 + 1);
  t1.add(5'000'000);
  HistoSnapshot t2 = t1;
  uint64_t window2_max = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t v = log_uniform(seed) % 900 + 1;
    window2_max = std::max(window2_max, v);
    t2.add(v);
  }

  const HistoSnapshot w1 = t1.diff(t0);
  EXPECT_EQ(w1.max_ns, 5'000'000u);
  const HistoSnapshot w2 = t2.diff(t1);
  EXPECT_GE(w2.max_ns, window2_max);
  EXPECT_LE(static_cast<double>(w2.max_ns),
            static_cast<double>(window2_max) * (1.0 + 1.0 / 64.0));
  EXPECT_LT(summarize(w2).max_us, 1.0);
  EXPECT_EQ(HistoSnapshot{}.diff(HistoSnapshot{}).max_ns, 0u);
}

TEST(LatencyHisto, DiffOfMergesEqualsMergeOfDiffs) {
  // The linearity the engine relies on: one merged snapshot per phase
  // boundary, diffed, equals per-thread diffs merged.
  uint64_t seed = 77;
  HistoSnapshot t0_a, t0_b;
  for (int i = 0; i < 400; ++i) t0_a.add(log_uniform(seed));
  for (int i = 0; i < 300; ++i) t0_b.add(log_uniform(seed));
  HistoSnapshot t1_a = t0_a, t1_b = t0_b;
  for (int i = 0; i < 200; ++i) t1_a.add(log_uniform(seed));
  for (int i = 0; i < 100; ++i) t1_b.add(log_uniform(seed));

  HistoSnapshot m0 = t0_a, m1 = t1_a;
  m0.merge(t0_b);
  m1.merge(t1_b);
  const HistoSnapshot diff_of_merge = m1.diff(m0);

  HistoSnapshot merge_of_diff = t1_a.diff(t0_a);
  merge_of_diff.merge(t1_b.diff(t0_b));

  EXPECT_EQ(diff_of_merge.total, merge_of_diff.total);
  EXPECT_EQ(diff_of_merge.counts, merge_of_diff.counts);
}

TEST(LatencyHisto, RecordSnapshotResetRoundtrip) {
  LatencyHisto h;
  uint64_t seed = 3;
  HistoSnapshot ref;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = log_uniform(seed);
    h.record(v);
    ref.add(v);
  }
  const HistoSnapshot s = h.snapshot();
  EXPECT_EQ(s.total, ref.total);
  EXPECT_EQ(s.max_ns, ref.max_ns);
  EXPECT_EQ(s.counts, ref.counts);

  h.reset();
  const HistoSnapshot z = h.snapshot();
  EXPECT_EQ(z.total, 0u);
  EXPECT_EQ(z.max_ns, 0u);
}

}  // namespace
}  // namespace pop::obs
