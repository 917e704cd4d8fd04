// Span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each popsmr layer (set-up, IKV ops, batch brackets, NetClient
// batches, the micro-probes). Each span carries a name whose prefix up to
// the first '.' is its layer ("ds.get" -> ds), a start and end on the
// steady clock, the id of the span that caused it, and the id of the
// request it belongs to. Spans stay in per-thread memory until the run
// ends; then write_perfetto() emits a Chrome-JSON trace (opens in
// ui.perfetto.dev) and layer_table() sums calls, total and self time per
// layer. With tracing off every entry point is a single relaxed load.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name;  // string literal, "<layer>.<what>"
  uint64_t id;
  uint64_t parent;   // 0 = root
  uint64_t request;  // spans of one request share this; 0 = none
  uint64_t start_ns;
  uint64_t end_ns;
  int thread;        // recording thread's index in the tracer
};

struct LayerRow {
  std::string layer;
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

bool trace_on();
void set_trace_on(bool on);

// Fresh span id (also usable as a request id).
uint64_t next_span_id();

// Records a finished span measured by the caller. No-op when tracing is
// off. Returns the span's id (0 when not recorded).
uint64_t record_span(const char* name, uint64_t parent, uint64_t request,
                     uint64_t start_ns, uint64_t end_ns);

// RAII span: starts at construction, recorded at destruction. The id is
// allocated up front so nested calls can name it as their parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t parent = 0,
                      uint64_t request = 0);
  ~ScopedSpan();
  uint64_t id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t start_ns_;
};

// Every span recorded so far, all threads. Call only once recording
// threads have been joined.
std::vector<Span> collect_spans();
uint64_t dropped_spans();

// Per-layer calls, total time and self time. Self time is a span's
// duration minus the part of its interval that its children cover (the
// union of the children's intervals, clipped to the parent).
std::vector<LayerRow> layer_table(const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" events, microsecond timestamps). Returns
// false when the file cannot be written.
bool write_perfetto(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
