#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

// Per-thread cap keeps a long traced run's memory bounded; spans past it
// are counted, not stored.
constexpr std::size_t kMaxSpansPerThread = 1u << 20;

struct Buffer {
  int thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu
thread_local Buffer* t_buf = nullptr;

Buffer& my_buffer() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    t_buf = g_buffers.back().get();
    t_buf->thread = static_cast<int>(g_buffers.size());
    t_buf->spans.reserve(4096);
  }
  return *t_buf;
}

std::string layer_of(const char* name) {
  const std::string n(name);
  const auto dot = n.find('.');
  return dot == std::string::npos ? n : n.substr(0, dot);
}

}  // namespace

bool trace_on() { return g_on.load(std::memory_order_relaxed); }
void set_trace_on(bool on) { g_on.store(on, std::memory_order_relaxed); }

uint64_t next_span_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t record_span(const char* name, uint64_t parent, uint64_t request,
                     uint64_t start_ns, uint64_t end_ns) {
  if (!trace_on()) return 0;
  const uint64_t id = next_span_id();
  Buffer& b = my_buffer();
  if (b.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  b.spans.push_back({name, id, parent, request, start_ns, end_ns, b.thread});
  return id;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t request)
    : name_(name),
      id_(trace_on() ? next_span_id() : 0),
      parent_(parent),
      request_(request),
      start_ns_(id_ != 0 ? now_ns() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const uint64_t end = now_ns();
  Buffer& b = my_buffer();
  if (b.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back({name_, id_, parent_, request_, start_ns_, end, b.thread});
}

std::vector<Span> collect_spans() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

uint64_t dropped_spans() { return g_dropped.load(std::memory_order_relaxed); }

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  // Children intervals per parent, clipped and merged into a covered
  // length so concurrent children on several threads count once.
  std::unordered_map<uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      kids;
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const uint64_t a = std::max(s.start_ns, p.start_ns);
    const uint64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[s.parent].emplace_back(a, b);
  }
  std::map<std::string, LayerRow> rows;
  for (const auto& s : spans) {
    const uint64_t dur = s.end_ns - s.start_ns;
    uint64_t covered = 0;
    const auto k = kids.find(s.id);
    if (k != kids.end()) {
      auto& iv = k->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_a = iv[0].first, cur_b = iv[0].second;
      for (std::size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_b) {
          covered += cur_b - cur_a;
          cur_a = iv[i].first;
          cur_b = iv[i].second;
        } else {
          cur_b = std::max(cur_b, iv[i].second);
        }
      }
      covered += cur_b - cur_a;
    }
    LayerRow& r = rows[layer_of(s.name)];
    r.calls += 1;
    r.total_ns += dur;
    r.self_ns += dur - std::min(dur, covered);
  }
  std::vector<LayerRow> out;
  for (auto& [name, r] : rows) {
    r.layer = name;
    out.push_back(r);
  }
  return out;
}

bool write_perfetto(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",\n", s.name, layer_of(s.name).c_str(),
                 s.thread, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
