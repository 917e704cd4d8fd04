// Slow paths and global state for the SMR contract sanitizer (audit.hpp).
#include "smr/audit.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runtime/env.hpp"

namespace pop::smr::audit {

namespace detail {

std::atomic<int> g_state{0};
thread_local uint32_t tl_bracket_depth = 0;

// Abort by default: a test suite wants the corpse at the violation
// site, not a corrupted run. set_abort_on_violation(false) warns instead.
std::atomic<bool> g_abort{true};

// Per-kind counters plus a warned-once latch for warn mode.
std::atomic<uint64_t> g_violations[kViolationCount] = {};
std::atomic<bool> g_warned[kViolationCount] = {};

int init_slow() {
  int want = runtime::env_u64("POPSMR_AUDIT", 0) != 0 ? 2 : 1;
  int expected = 0;
  if (!g_state.compare_exchange_strong(expected, want,
                                       std::memory_order_relaxed)) {
    want = expected;  // lost the race: someone else initialized
  }
  return want;
}

void report(Violation v, const char* scheme, int tid, const void* ptr) {
  const int i = static_cast<int>(v);
  g_violations[i].fetch_add(1, std::memory_order_relaxed);
  if (g_abort.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "popsmr-audit: FATAL %s: scheme=%s tid=%d ptr=%p\n",
                 violation_name(v), scheme, tid, ptr);
    std::abort();
  }
  if (!g_warned[i].exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "popsmr-audit: %s: scheme=%s tid=%d ptr=%p "
                 "(warn mode; further %s violations counted silently)\n",
                 violation_name(v), scheme, tid, ptr, violation_name(v));
  }
}

}  // namespace detail

const char* violation_name(Violation v) {
  switch (v) {
    case Violation::kDoubleRetire:      return "double_retire";
    case Violation::kRetireOutsideOp:   return "retire_outside_op";
    case Violation::kUnbalancedBracket: return "unbalanced_bracket";
    case Violation::kFreeNeverRetired:  return "free_never_retired";
    default:                            return "unknown";
  }
}

void set_enabled(bool enabled) {
  detail::g_state.store(enabled ? 2 : 1, std::memory_order_relaxed);
}

void set_abort_on_violation(bool abort_on_violation) {
  detail::g_abort.store(abort_on_violation, std::memory_order_relaxed);
}

bool abort_on_violation() {
  return detail::g_abort.load(std::memory_order_relaxed);
}

uint64_t violations() {
  uint64_t total = 0;
  for (const auto& c : detail::g_violations) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t violations(Violation v) {
  return detail::g_violations[static_cast<int>(v)].load(
      std::memory_order_relaxed);
}

void reset() {
  for (auto& c : detail::g_violations) c.store(0, std::memory_order_relaxed);
  for (auto& w : detail::g_warned) w.store(false, std::memory_order_relaxed);
}

void check_detach(const char* scheme, int tid) {
  if (!on()) return;
  if (detail::tl_bracket_depth != 0) {
    detail::report(Violation::kUnbalancedBracket, scheme, tid, nullptr);
    detail::tl_bracket_depth = 0;
  }
}

void DomainShadow::on_retire(const char* scheme, int tid, const void* p) {
  if (detail::tl_bracket_depth == 0) {
    detail::report(Violation::kRetireOutsideOp, scheme, tid, p);
  }
  bool fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fresh = set_.insert(p).second;
  }
  if (!fresh) detail::report(Violation::kDoubleRetire, scheme, tid, p);
}

void DomainShadow::on_free(const char* scheme, int tid, const void* p) {
  bool known;
  {
    std::lock_guard<std::mutex> lock(mu_);
    known = set_.erase(p) != 0;
  }
  if (!known) detail::report(Violation::kFreeNeverRetired, scheme, tid, p);
}

void DomainShadow::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  set_.clear();
}

uint64_t DomainShadow::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return set_.size();
}

}  // namespace pop::smr::audit
