// EBR — epoch-based reclamation, RCU style (the paper's Algorithm 6, the
// substrate of EpochPOP's fast path).
//
// A thread announces the global epoch on operation entry and announces
// quiescence (kQuiescent) on exit; one announcement fence per *operation*
// instead of per read. A reclaimer frees nodes retired before the minimum
// announced epoch. Not robust: a thread parked inside an operation pins
// the minimum epoch and stops all reclamation — the failure mode EpochPOP
// exists to fix (and which tests/smr_robustness demonstrates).
#pragma once

#include <atomic>
#include <cstdint>

#include "smr/domain_base.hpp"
#include "smr/tagged.hpp"

namespace pop::smr {

// The epoch half of EBR, shared with EpochPOP: the global epoch, each
// thread's announcement, and the min-epoch sweep.
class EpochAnnouncements {
 public:
  static constexpr uint64_t kQuiescent = UINT64_MAX;

  explicit EpochAnnouncements(const SmrConfig& cfg)
      : epoch_freq_(cfg.epoch_freq) {}

  uint64_t current() const { return epoch_.load(std::memory_order_acquire); }
  void bump() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  // Operation entry (Algorithm 3 startOp()): advance the global epoch every
  // epoch_freq operations, then announce it.
  void announce(int tid) {
    if (++op_counter_[tid]->v % epoch_freq_ == 0) bump();
    // seq_cst store: the announcement must be globally visible before the
    // operation's reads. Under EpochPOP this is the one fence per operation
    // that the reclaimer's ping lets the reader skip on every read.
    reserved_[tid]->v.store(current(), std::memory_order_seq_cst);
  }

  // Operation exit, attach and detach — and a certified corpse: a thread
  // that died inside an operation pins the minimum epoch forever, so the
  // reaper parks it at quiescent before the minimum is computed.
  void quiesce(int tid) {
    reserved_[tid]->v.store(kQuiescent, std::memory_order_release);
  }

  // One EBR pass: reap (`neutralize` must quiesce the corpse), then free
  // every node retired before the minimum announced epoch. Returns the
  // number freed. The minimum is the pass's era floor, so while a reader
  // parked in an operation pins the oldest retired node the pass walks
  // nothing: it pays for what it can free, not for what it holds.
  template <class Neutralize>
  uint64_t sweep(DomainCore& core, int tid, Neutralize&& neutralize) {
    core.reap_dead(tid, neutralize);
    uint64_t min_reserved = kQuiescent;
    const int hi = runtime::ThreadRegistry::instance().max_tid();
    for (int t = 0; t <= hi; ++t) {
      const uint64_t r = reserved_[t]->v.load(std::memory_order_acquire);
      if (r < min_reserved) min_reserved = r;
    }
    auto& st = core.stats(tid);
    st.scans += 1;
    const uint64_t freed = core.sweep_retired(
        tid,
        [&](Reclaimable* node) { return node->retire_era < min_reserved; },
        min_reserved);
    st.freed += freed;
    return freed;
  }

 private:
  struct Counter {
    uint64_t v = 0;
  };

  // Starts quiescent: a zero-initialized slot would read as "reserved at
  // epoch 0" in sweep() for registry tids that never attached to this
  // domain and pin every retired node forever.
  struct ReservedEpoch {
    std::atomic<uint64_t> v{kQuiescent};
  };

  uint64_t epoch_freq_;
  std::atomic<uint64_t> epoch_{1};
  runtime::Padded<ReservedEpoch> reserved_[runtime::kMaxThreads];
  runtime::Padded<Counter> op_counter_[runtime::kMaxThreads];
};

class EbrDomain {
 public:
  static constexpr const char* kName = "EBR";
  static constexpr bool kNeutralizes = false;
  using Guard = OpGuard<EbrDomain>;

  explicit EbrDomain(const SmrConfig& cfg = {})
      : core_(cfg, kName), epochs_(cfg) {}

  void attach() {
    const int tid = runtime::my_tid();
    if (core_.attach_if_new(tid)) epochs_.quiesce(tid);
  }
  void detach() {
    const int tid = runtime::my_tid();
    epochs_.quiesce(tid);
    core_.mark_detached(tid);
  }

  void begin_op() {
    attach();
    epochs_.announce(runtime::my_tid());
  }
  void end_op() { epochs_.quiesce(runtime::my_tid()); }

  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);  // epoch covers the read
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  template <class T, class... Args>
  T* create(Args&&... args) {
    return core_.create_node<T>(epochs_.current(),
                                std::forward<Args>(args)...);
  }

  // Length trigger, unlike the hazard schemes' tick: a pass here is cheap
  // (no handshake) and frees everything older than the slowest reader.
  // Only a pressure pass bumps the epoch first.
  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    const uint64_t len = core_.retire_push(tid, n, epochs_.current());
    if (len % core_.config().retire_threshold == 0) {
      scan(tid);
    } else if (core_.pressure_check(tid)) {
      epochs_.bump();
      scan(tid);
      core_.pressure_relieved_or_warn(tid);
    }
  }

  void enter_write_phase(std::initializer_list<const Reclaimable*> = {}) {}
  void exit_write_phase() {}

  StatsSnapshot stats() const { return core_.stats_snapshot(); }
  const SmrConfig& config() const { return core_.config(); }
  uint64_t current_epoch() const { return epochs_.current(); }

 private:
  void scan(int tid) {
    epochs_.sweep(core_, tid, [this](int t) { epochs_.quiesce(t); });
  }

  DomainCore core_;
  EpochAnnouncements epochs_;
};

}  // namespace pop::smr
