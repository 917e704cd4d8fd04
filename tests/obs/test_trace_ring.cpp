// TraceRing: wraparound keeps the newest events and accounts for the
// dropped ones; collect() running against a concurrent writer never
// observes a torn event; the process-wide Chrome trace dump is
// structurally valid trace-event JSON (CI additionally json.loads a real
// scenario trace).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_ring.hpp"

namespace pop::obs {
namespace {

TEST(TraceRing, CapacityRoundsUpToPowerOfTwoFlooredAtEight) {
  EXPECT_EQ(TraceRing(0).capacity(), 8u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(16);
  const uint64_t n = 100;
  for (uint64_t i = 0; i < n; ++i) {
    ring.record(TraceKind::kRetire, /*t_ns=*/i, /*dur_ns=*/0,
                static_cast<uint32_t>(i));
  }
  EXPECT_EQ(ring.recorded(), n);
  EXPECT_EQ(ring.dropped(), n - ring.capacity());

  std::vector<TraceEvent> out;
  ring.collect(/*tid=*/3, out);
  ASSERT_EQ(out.size(), ring.capacity());
  for (const auto& e : out) {
    // Only the newest capacity() events survive overwriting.
    EXPECT_GE(e.t_ns, n - ring.capacity());
    EXPECT_LT(e.t_ns, n);
    EXPECT_EQ(e.arg, static_cast<uint32_t>(e.t_ns));
    EXPECT_EQ(e.tid, 3);
  }
}

TEST(TraceRing, ConcurrentCollectNeverSeesTornEvents) {
  // Writer stamps a checkable invariant into every field (arg mirrors
  // t_ns, dur_ns is 3*t_ns, kind alternates); any mix of two different
  // writes would break it. Readers hammer collect() the whole time.
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::thread writer([&] {
    uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const TraceKind k =
          (i & 1) ? TraceKind::kRetire : TraceKind::kSweep;
      ring.record(k, i, 3 * i, static_cast<uint32_t>(i));
      ++i;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<TraceEvent> out;
      for (int iter = 0; iter < 2000; ++iter) {
        out.clear();
        ring.collect(0, out);
        for (const auto& e : out) {
          const bool consistent =
              e.dur_ns == 3 * e.t_ns &&
              e.arg == static_cast<uint32_t>(e.t_ns) &&
              e.kind == static_cast<uint32_t>(
                            (e.t_ns & 1) ? TraceKind::kRetire
                                         : TraceKind::kSweep);
          if (!consistent) torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn.load(), 0u);
}

// Structural validation of the Chrome trace-event dump: balanced JSON
// with the traceEvents array, both event phases, and the truncation
// disclosure. Perfetto accepts exactly this shape; CI parses a real
// scenario trace with python as the end-to-end check.
TEST(TraceDump, ChromeTraceJsonShape) {
  const std::string path =
      ::testing::TempDir() + "trace_ring_dump_test.json";
  arm_trace(path);
  ASSERT_TRUE(trace_on());

  const uint64_t t0 = now_ns();
  trace_event(TraceKind::kScenarioBegin, t0, 0, 2);
  trace_event(TraceKind::kSweep, t0 + 1000, 5000, 17);         // span "X"
  trace_event(TraceKind::kPingWaveLead, t0 + 7000, 2000, 3);   // span "X"
  trace_event(TraceKind::kZombieCertified, t0 + 9000, 0, 11);  // instant
  trace_event(TraceKind::kScenarioEnd, t0 + 10000, 0, 0);

  const auto events = trace_collect();
  ASSERT_GE(events.size(), 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_ns, events[i - 1].t_ns) << "not sorted";
  }

  ASSERT_TRUE(dump_trace_to(path));
  disarm_trace();

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u)
      << "dump must open with the traceEvents array";
  EXPECT_NE(body.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(body.find("\"dropped_events\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos) << "no span events";
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos)
      << "no instant events";
  EXPECT_NE(body.find("\"name\":\"sweep\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"zombie_certified\""), std::string::npos);
  // No string value the dumper emits contains a brace, so balanced braces
  // and brackets are a real (if coarse) well-formedness check.
  long braces = 0, brackets = 0;
  for (const char c : body) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceDump, DumpWithNothingArmedFails) {
  disarm_trace();
  EXPECT_FALSE(dump_trace());
}

}  // namespace
}  // namespace pop::obs
