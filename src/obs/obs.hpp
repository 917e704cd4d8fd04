// Unified observability layer: latency histograms, event tracing, hardware
// counters, and row-stamping for the JSONL rail.
//
// Design rule: the disabled path compiles to (almost) nothing. Every hook
// below reduces to one relaxed atomic load plus a predictable branch when
// the corresponding channel is off; tests/obs/test_obs_overhead.cpp pins
// that cost under 2% of a ~100 ns op.
//
// Channels, each one std::atomic<bool>, off until a switch turns it on.
// The bench flags (bench/cli.hpp) call the switches; tests call them
// directly:
//   latency   --latency      / set_latency()
//   tracing   --trace <path> / arm_trace(), disarm_trace()
//   hardware  --hw-counters  / set_hw()
// A trace ring holds kTraceRingEvents events per thread.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/latency_histo.hpp"
#include "obs/trace_ring.hpp"

namespace pop::obs {

// Events each thread's trace ring holds before it wraps (wrapped events
// are counted in the dump's dropped_events).
inline constexpr uint32_t kTraceRingEvents = 8192;

// Everything the engine/driver times, point ops and reclamation side.
enum class LatOp : int {
  kGet = 0,
  kPut,
  kInsert,
  kRemove,
  // Server-side drain of one pipelined batch inside one SMR batch
  // bracket (src/net/server.cpp) — not a point op (excluded from the
  // merged point-op summary by kPointOpCount).
  kNetBatch,
  kPingWave,
  kSweep,
  kReap,
  kCount,
};

inline constexpr int kLatOpCount = static_cast<int>(LatOp::kCount);
inline constexpr int kPointOpCount = 4;  // kGet..kRemove

inline const char* lat_op_name(LatOp op) {
  switch (op) {
    case LatOp::kGet:      return "get";
    case LatOp::kPut:      return "put";
    case LatOp::kInsert:   return "insert";
    case LatOp::kRemove:   return "remove";
    case LatOp::kNetBatch: return "net_batch";
    case LatOp::kPingWave: return "ping_wave";
    case LatOp::kSweep:    return "sweep";
    case LatOp::kReap:     return "reap";
    default:               return "unknown";
  }
}

namespace detail {
extern std::atomic<bool> g_latency_on;
extern std::atomic<bool> g_hw_on;
extern std::atomic<bool> g_trace_on;
void record_latency_slow(LatOp op, uint64_t ns);
void trace_event_slow(TraceKind k, uint64_t t_ns, uint64_t dur_ns,
                      uint32_t arg);
}  // namespace detail

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-wide run identity for JSONL rows: run_id is the wall-clock ns at
// first use (monotonic across successive runs, stable within one), ts is
// the per-row wall-clock in ms since the epoch.
uint64_t run_id();
uint64_t wall_ts_ms();

// ---- channel toggles -------------------------------------------------------

inline bool latency_on() {
  return detail::g_latency_on.load(std::memory_order_relaxed);
}

inline bool hw_on() { return detail::g_hw_on.load(std::memory_order_relaxed); }

inline bool trace_on() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

void set_latency(bool on);
void set_hw(bool on);

// ---- latency ---------------------------------------------------------------

// Record one duration into the calling thread's histogram for `op`.
inline void record_latency(LatOp op, uint64_t ns) {
  if (!latency_on()) return;
  detail::record_latency_slow(op, ns);
}

// Merged view across all threads for one op kind. Cheap enough to take at
// phase boundaries; diff two snapshots for an interval.
HistoSnapshot latency_snapshot(LatOp op);

// Quiescent-only: zero every thread's histograms (tests).
void latency_reset();

// ---- tracing ---------------------------------------------------------------

// Append an event to the calling thread's ring. No-op unless tracing is
// armed. `t_ns` is the event start (now_ns clock); `dur_ns` 0 for instants.
inline void trace_event(TraceKind k, uint64_t t_ns, uint64_t dur_ns,
                        uint32_t arg = 0) {
  if (!trace_on()) return;
  detail::trace_event_slow(k, t_ns, dur_ns, arg);
}

// Arm tracing with an output path (the path dump_trace() writes to).
void arm_trace(const std::string& path);
void disarm_trace();

// Dump every thread's ring as Chrome trace-event JSON ("traceEvents"
// array; Perfetto-openable). dump_trace() writes to the armed path.
// Returns false when nothing is armed / the file cannot be written.
bool dump_trace();
bool dump_trace_to(const std::string& path);

// Collected view for tests: every stable event, sorted by timestamp.
std::vector<TraceEvent> trace_collect();

// Total events lost to ring wraparound (disclosed in the dump's metadata).
uint64_t trace_dropped();

}  // namespace pop::obs
