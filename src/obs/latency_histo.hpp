// LatencyHisto — lock-free per-thread log-bucketed latency histogram.
//
// HDR-style bucket layout: values below 128 ns land in unit-width buckets;
// above that, each power-of-two range is split into 64 sub-buckets, so the
// relative quantization error is bounded by 1/64 ≈ 1.6% — two significant
// digits, which is the accuracy contract tests/obs/test_latency_histo.cpp
// enforces against an exact sorted reference. Values are capped at 2^42 ns
// (~73 minutes); anything longer saturates into the top bucket but is still
// reflected exactly in max_ns.
//
// Concurrency contract: record() is single-writer (the owning thread);
// snapshot() may run concurrently from any thread. Counters are relaxed
// atomics — the single-writer discipline means plain load+store suffices,
// and using atomics keeps TSan clean without widening tsan.supp. A
// concurrent snapshot may miss in-flight increments; it never tears.

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

namespace pop::obs {

inline constexpr int kHistoSubBits = 6;  // 64 sub-buckets per octave
inline constexpr uint64_t kHistoCapNs = (uint64_t{1} << 42) - 1;
// Max shift for a capped value: bit_width(2^42-1) = 42 → shift 35, and the
// index formula below tops out at (35 << 6) | 127.
inline constexpr uint32_t kHistoBuckets = (35u << kHistoSubBits) + 128u;

// value → bucket index. shift = 0 for the linear region (< 128), else
// bit_width(v) - (kHistoSubBits + 1); index = (shift << 6) + (v >> shift).
// The add (not an or) is load-bearing: v >> shift always has bit 6 set,
// so or-ing would alias odd-shift octaves onto the one below them.
inline uint32_t histo_bucket_index(uint64_t v) {
  if (v > kHistoCapNs) v = kHistoCapNs;
  if (v < 128) return static_cast<uint32_t>(v);
  const int shift = std::bit_width(v) - (kHistoSubBits + 1);
  return (static_cast<uint32_t>(shift) << kHistoSubBits) +
         static_cast<uint32_t>(v >> shift);
}

// Representative value (bucket midpoint) for an index; inverse of the above
// up to quantization.
inline uint64_t histo_bucket_value(uint32_t idx) {
  const uint32_t seg = idx >> kHistoSubBits;
  if (seg <= 1) return idx;  // linear region, exact
  const int shift = static_cast<int>(seg) - 1;
  const uint64_t base = static_cast<uint64_t>(idx - (seg << kHistoSubBits) +
                                              (1u << kHistoSubBits))
                        << shift;
  return base + (uint64_t{1} << (shift - 1));  // midpoint of [base, base+2^shift)
}

// Largest value an index holds (the inclusive top of its bucket).
inline uint64_t histo_bucket_upper(uint32_t idx) {
  const uint64_t mid = histo_bucket_value(idx);
  const uint32_t seg = idx >> kHistoSubBits;
  return seg <= 1 ? mid : mid + (uint64_t{1} << (seg - 2)) - 1;
}

struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0, max_us = 0;
};

// Plain (non-atomic) copy of a histogram; mergeable and diffable.
struct HistoSnapshot {
  std::array<uint64_t, kHistoBuckets> counts{};
  uint64_t total = 0;
  uint64_t max_ns = 0;

  void add(uint64_t ns) {
    counts[histo_bucket_index(ns)]++;
    total++;
    max_ns = std::max(max_ns, ns);
  }

  void merge(const HistoSnapshot& o) {
    for (uint32_t i = 0; i < kHistoBuckets; ++i) counts[i] += o.counts[i];
    total += o.total;
    max_ns = std::max(max_ns, o.max_ns);
  }

  // Counts since `earlier` (which must be an older snapshot of the same
  // histogram set). max_ns is the window's own max: the top of its
  // highest non-empty bucket (within the 1/64 bucket error), clamped to
  // the later high-watermark — so an outlier before `earlier` does not
  // leak into every later window.
  HistoSnapshot diff(const HistoSnapshot& earlier) const {
    HistoSnapshot d;
    for (uint32_t i = 0; i < kHistoBuckets; ++i) {
      const uint64_t a = counts[i], b = earlier.counts[i];
      d.counts[i] = a >= b ? a - b : 0;
      d.total += d.counts[i];
      if (d.counts[i] != 0) d.max_ns = std::min(histo_bucket_upper(i), max_ns);
    }
    return d;
  }

  // p in [0, 100]. Returns the midpoint of the bucket holding the p-th
  // percentile sample, in ns; 0 when empty. p=100 returns exact max_ns.
  uint64_t percentile(double p) const {
    if (total == 0) return 0;
    if (p >= 100.0) return max_ns;
    uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 *
                                                    static_cast<double>(total)));
    if (rank < 1) rank = 1;
    uint64_t cum = 0;
    for (uint32_t i = 0; i < kHistoBuckets; ++i) {
      cum += counts[i];
      if (cum >= rank) return std::min(histo_bucket_value(i), max_ns);
    }
    return max_ns;
  }
};

inline LatencySummary summarize(const HistoSnapshot& s) {
  LatencySummary r;
  r.count = s.total;
  if (s.total == 0) return r;
  r.p50_us = static_cast<double>(s.percentile(50.0)) / 1000.0;
  r.p90_us = static_cast<double>(s.percentile(90.0)) / 1000.0;
  r.p99_us = static_cast<double>(s.percentile(99.0)) / 1000.0;
  r.p999_us = static_cast<double>(s.percentile(99.9)) / 1000.0;
  r.max_us = static_cast<double>(s.max_ns) / 1000.0;
  return r;
}

class LatencyHisto {
 public:
  // Owner thread only.
  void record(uint64_t ns) {
    const uint32_t idx = histo_bucket_index(ns);
    counts_[idx].store(counts_[idx].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    if (ns > max_ns_.load(std::memory_order_relaxed))
      max_ns_.store(ns, std::memory_order_relaxed);
    // total_ last: a concurrent snapshot that sees the new total has at
    // least as many bucket increments available to find (same thread, so
    // no ordering needed for the owner; readers tolerate slack anyway).
    total_.store(total_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }

  // Any thread. Monotonic-ish: concurrent records may be partially visible.
  HistoSnapshot snapshot() const {
    HistoSnapshot s;
    for (uint32_t i = 0; i < kHistoBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
      s.total += s.counts[i];
    }
    s.max_ns = max_ns_.load(std::memory_order_relaxed);
    return s;
  }

  // Quiescent-only (tests): zero everything.
  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> counts_[kHistoBuckets] = {};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> max_ns_{0};
};

}  // namespace pop::obs
