// Observability backends: per-thread histogram / ring registries, the
// perf_event_open syscalls, and the Chrome trace-event dump.

#include "obs/obs.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/hw_counters.hpp"
#include "runtime/thread_registry.hpp"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace pop::obs {

uint64_t run_id() {
  // Wall-clock ns at first call: unique-enough per process, and monotonic
  // across successive runs so concatenated CI artifacts sort correctly.
  static const uint64_t id = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return id;
}

uint64_t wall_ts_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

namespace detail {

std::atomic<bool> g_latency_on{false};
std::atomic<bool> g_hw_on{false};
std::atomic<bool> g_trace_on{false};

namespace {

// ---- latency registry ------------------------------------------------------

struct ThreadHistos {
  LatencyHisto h[kLatOpCount];
};

// Slots are published with release so a snapshotting thread that sees the
// pointer sees a constructed object. Freed by the table destructor at
// process exit (ASan leak checking stays clean); worker threads are joined
// before main returns in every binary that enables latency.
struct HistoTable {
  std::atomic<ThreadHistos*> slots[runtime::kMaxThreads] = {};
  ~HistoTable() {
    for (auto& s : slots) delete s.load(std::memory_order_acquire);
  }
};

HistoTable& histo_table() {
  static HistoTable t;
  return t;
}

ThreadHistos& histos_for_self() {
  const int tid = runtime::my_tid();
  auto& slot = histo_table().slots[tid];
  ThreadHistos* h = slot.load(std::memory_order_acquire);
  if (!h) {
    // tid slots are owned by one live thread at a time, so no CAS race:
    // only the owner allocates its slot. (Recycled tids inherit the block,
    // which is fine — snapshots are process-wide merges anyway.)
    h = new ThreadHistos();
    slot.store(h, std::memory_order_release);
  }
  return *h;
}

// ---- trace registry --------------------------------------------------------

struct TraceRegistry {
  std::atomic<TraceRing*> rings[runtime::kMaxThreads] = {};
  std::mutex mu;             // guards path/epoch
  std::string path;
  uint64_t epoch_ns = 0;     // now_ns at arm time; dump timestamps are
                             // relative to this

  ~TraceRegistry() {
    for (auto& r : rings) delete r.load(std::memory_order_acquire);
  }
};

TraceRegistry& trace_registry() {
  static TraceRegistry t;
  return t;
}

TraceRing& ring_for_self() {
  auto& reg = trace_registry();
  const int tid = runtime::my_tid();
  auto& slot = reg.rings[tid];
  TraceRing* r = slot.load(std::memory_order_acquire);
  if (!r) {
    r = new TraceRing(kTraceRingEvents);
    slot.store(r, std::memory_order_release);
  }
  return *r;
}

}  // namespace

void record_latency_slow(LatOp op, uint64_t ns) {
  histos_for_self().h[static_cast<int>(op)].record(ns);
}

void trace_event_slow(TraceKind k, uint64_t t_ns, uint64_t dur_ns,
                      uint32_t arg) {
  ring_for_self().record(k, t_ns, dur_ns, arg);
}

}  // namespace detail

void set_latency(bool on) {
  detail::g_latency_on.store(on, std::memory_order_relaxed);
}

void set_hw(bool on) { detail::g_hw_on.store(on, std::memory_order_relaxed); }

HistoSnapshot latency_snapshot(LatOp op) {
  HistoSnapshot s;
  auto& table = detail::histo_table();
  for (int t = 0; t < runtime::kMaxThreads; ++t) {
    auto* h = table.slots[t].load(std::memory_order_acquire);
    if (h) s.merge(h->h[static_cast<int>(op)].snapshot());
  }
  return s;
}

void latency_reset() {
  auto& table = detail::histo_table();
  for (int t = 0; t < runtime::kMaxThreads; ++t) {
    auto* h = table.slots[t].load(std::memory_order_acquire);
    if (!h) continue;
    for (int k = 0; k < kLatOpCount; ++k) h->h[k].reset();
  }
}

void arm_trace(const std::string& path) {
  auto& reg = detail::trace_registry();
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    reg.path = path;
    if (reg.epoch_ns == 0) reg.epoch_ns = now_ns();
  }
  detail::g_trace_on.store(true, std::memory_order_relaxed);
}

void disarm_trace() {
  detail::g_trace_on.store(false, std::memory_order_relaxed);
  // Forget the armed path too: a later dump_trace() with nothing armed
  // must fail rather than overwrite the previous run's file.
  auto& reg = detail::trace_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.path.clear();
}

std::vector<TraceEvent> trace_collect() {
  std::vector<TraceEvent> out;
  auto& reg = detail::trace_registry();
  for (int t = 0; t < runtime::kMaxThreads; ++t) {
    auto* r = reg.rings[t].load(std::memory_order_acquire);
    if (r) r->collect(t, out);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.t_ns < b.t_ns;
            });
  return out;
}

uint64_t trace_dropped() {
  uint64_t d = 0;
  auto& reg = detail::trace_registry();
  for (int t = 0; t < runtime::kMaxThreads; ++t) {
    auto* r = reg.rings[t].load(std::memory_order_acquire);
    if (r) d += r->dropped();
  }
  return d;
}

bool dump_trace_to(const std::string& path) {
  if (path.empty()) return false;
  uint64_t epoch;
  {
    auto& reg = detail::trace_registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    epoch = reg.epoch_ns;
  }
  const std::vector<TraceEvent> events = trace_collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "popsmr: cannot write trace to %s: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  // Chrome trace-event "JSON object format": Perfetto and about://tracing
  // both accept {"traceEvents": [...]}. Timestamps are microseconds
  // relative to the arm epoch; spans are "X" complete events, the rest
  // instant events with thread scope.
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& e : events) {
    const auto k = static_cast<TraceKind>(e.kind);
    const double ts_us =
        static_cast<double>(e.t_ns >= epoch ? e.t_ns - epoch : 0) / 1000.0;
    if (!first) std::fputc(',', f);
    first = false;
    if (trace_kind_is_span(k)) {
      std::fprintf(f,
                   "\n{\"name\":\"%s\",\"cat\":\"smr\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
                   "\"args\":{\"arg\":%u}}",
                   trace_kind_name(k), ts_us,
                   static_cast<double>(e.dur_ns) / 1000.0, e.tid, e.arg);
    } else {
      std::fprintf(f,
                   "\n{\"name\":\"%s\",\"cat\":\"smr\",\"ph\":\"i\","
                   "\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,"
                   "\"args\":{\"arg\":%u}}",
                   trace_kind_name(k), ts_us, e.tid, e.arg);
    }
  }
  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ms\","
               "\"otherData\":{\"dropped_events\":\"%" PRIu64 "\"}}\n",
               trace_dropped());
  std::fclose(f);
  return true;
}

bool dump_trace() {
  std::string path;
  {
    auto& reg = detail::trace_registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    path = reg.path;
  }
  return dump_trace_to(path);
}

// ---------------------------------------------------------------------------
// HwCounters
// ---------------------------------------------------------------------------

#ifdef __linux__

namespace {

int open_counter(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // works under perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  // Returns -1 with EACCES/EPERM (paranoid), ENOSYS/ENOENT (no PMU /
  // unsupported event) — all of which we absorb as "counter absent".
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /*self*/, -1 /*any cpu*/,
              -1 /*no group*/, 0));
}

}  // namespace

HwCounters::HwCounters() {
  fd_[0] = open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  fd_[1] = open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  fd_[2] = open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
  fd_[3] = open_counter(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES);
  hw_valid_ = fd_[0] >= 0 || fd_[1] >= 0 || fd_[2] >= 0;
}

HwCounters::~HwCounters() {
  for (int fd : fd_) {
    if (fd >= 0) close(fd);
  }
}

HwSample HwCounters::read() const {
  HwSample s;
  s.valid = hw_valid_;
  uint64_t* out[4] = {&s.cycles, &s.instructions, &s.llc_misses,
                      &s.ctx_switches};
  for (int i = 0; i < 4; ++i) {
    if (fd_[i] < 0) continue;
    uint64_t v = 0;
    if (::read(fd_[i], &v, sizeof(v)) == static_cast<ssize_t>(sizeof(v))) {
      *out[i] = v;
    }
  }
  return s;
}

bool HwCounters::available() {
  const int fd = open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  if (fd < 0) return false;
  close(fd);
  return true;
}

#else  // !__linux__

HwCounters::HwCounters() {}
HwCounters::~HwCounters() {}
HwSample HwCounters::read() const { return {}; }
bool HwCounters::available() { return false; }

#endif

}  // namespace pop::obs
