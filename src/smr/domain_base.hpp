// DomainCore: bookkeeping shared by every reclamation scheme — per-thread
// retire lists, statistics, attach/detach flags, node construction with
// era stamping, and teardown draining.
//
// A *domain* is one reclamation instance; a data structure owns exactly
// one. Threads attach lazily on their first operation. All per-thread
// state is indexed by the dense runtime::my_tid().
#pragma once

#include <atomic>
#include <cassert>
#include <cstdio>
#include <memory>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/padded.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/thread_registry.hpp"
#include "smr/audit.hpp"
#include "smr/hp_slots.hpp"
#include "smr/retire_list.hpp"
#include "smr/smr_config.hpp"

namespace pop::smr {

class DomainCore {
 public:
  // `scheme` is the owning scheme's kName, carried only so contract-audit
  // reports can name the offender (audit.hpp).
  explicit DomainCore(const SmrConfig& cfg, const char* scheme = "?")
      : cfg_(cfg), scheme_(scheme) {}

  ~DomainCore() {
    // Teardown frees everything still in flight by design; the shadow set
    // must not outlive the domain and report those drains as violations.
    if (audit::on()) shadow_.clear();
    // The owning data structure has been (or is being) destroyed: nothing
    // can still hold references, so drain every retire list. Only slots a
    // thread ever attached covers every retire list (threads attach on
    // their first operation, before any retire): a sharded service tears
    // down N short-lived domains per map, and an unconditional
    // kMaxThreads sweep per domain was the dominant teardown cost.
    const int hi = hi_tid_.load(std::memory_order_acquire);
    for (int t = 0; t <= hi; ++t) {
      auto& pt = *pt_[t];
      pt.stats.freed += pt.retire.drain();
    }
  }

  const SmrConfig& config() const { return cfg_; }

  // True exactly once per (thread, domain) *ownership*: the caller runs
  // its scheme-specific attach work when this returns true. Ownership is
  // epoch-aware: if the slot's recorded owner departed without detaching
  // (a killed worker) and the registry recycled the tid to the calling
  // thread, this returns true again — the new owner re-initializes the
  // scheme state instead of silently inheriting a corpse's reservations.
  // The fast path also feeds the reaper's heartbeat (one relaxed
  // increment on the thread's own registry line per operation bracket).
  bool attach_if_new(int tid) {
    auto& reg = runtime::ThreadRegistry::instance();
    reg.heartbeat_bump(tid);
    auto& pt = *pt_[tid];
    if (pt.attached.load(std::memory_order_relaxed) &&
        pt.owner_epoch.load(std::memory_order_relaxed) == reg.slot_epoch(tid)) {
      return false;
    }
    return attach_slow(tid);
  }

  void mark_detached(int tid) {
    // Runs on the detaching thread itself, so the thread-local bracket
    // depth it checks is the right one (the reaper clears `attached`
    // directly, never through here — a corpse's depth is unreachable).
    if (audit::on()) audit::check_detach(scheme_, tid);
    pt_[tid]->attached.store(false, std::memory_order_release);
  }

  bool attached(int tid) const {
    return pt_[tid]->attached.load(std::memory_order_acquire);
  }

  // Registry epoch recorded for the thread that owns `tid`'s state here.
  uint64_t owner_epoch(int tid) const {
    return pt_[tid]->owner_epoch.load(std::memory_order_relaxed);
  }

  // True iff `tid` is attached but its recorded owner is certified gone
  // (exited without detaching, or kernel-dead). Cheap enough for wait
  // loops: the common live-owner answer needs no syscall when the
  // heartbeat is advancing.
  bool owner_departed(int tid) {
    auto& pt = *pt_[tid];
    if (!pt.attached.load(std::memory_order_acquire)) return false;
    return runtime::ThreadRegistry::instance().owner_departed(
        tid, pt.owner_epoch.load(std::memory_order_relaxed));
  }

  // ---- zombie reaper -----------------------------------------------------
  //
  // Certifies attached tids whose owner is gone, neutralizes their
  // scheme-level reservation state via `neutralize(tid)`, and adopts
  // their orphaned retire lists into the calling thread's list so the
  // backlog rejoins normal sweeps. Certification rules, in order:
  //   1. registry slot epoch moved past the recorded owner epoch — the
  //      owner deregistered (normal exit without detach) or the slot was
  //      recycled; either way the recorded owner can never return.
  //   2. owner still registered but its heartbeat froze across
  //      kStaleScansBeforeProbe reap passes AND tgkill(sig 0) says the
  //      kernel thread is gone (TLS destructor never ran). The heartbeat
  //      gate keeps the syscall off the common path; tgkill alone
  //      certifies (a parked-but-live reader probes as alive).
  // Runs under a try-lock: reaps are rare, and skipping when another
  // thread is already reaping (or an attacher holds the lock) is always
  // safe — the next pass retries. Call from reclamation passes, before
  // computing the protected set, so neutralized state frees same-pass.
  template <class Neutralize>
  void reap_dead(int self_tid, Neutralize&& neutralize) {
    if (reap_mu_.exchange(true, std::memory_order_acquire)) return;
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    uint64_t obs_reaped = 0;
    auto& reg = runtime::ThreadRegistry::instance();
    const int hi = hi_tid_.load(std::memory_order_acquire);
    for (int t = 0; t <= hi; ++t) {
      if (t == self_tid) continue;
      auto& pt = *pt_[t];
      if (!pt.attached.load(std::memory_order_acquire)) continue;
      const uint64_t owner = pt.owner_epoch.load(std::memory_order_relaxed);
      bool departed = reg.slot_epoch(t) != owner || !reg.alive(t);
      if (!departed) {
        // Same owner, still registered: suspicion requires a frozen
        // heartbeat across passes before the kernel probe is spent.
        const uint64_t hb = reg.heartbeat(t);
        if (hb != reap_hb_[t]) {
          reap_hb_[t] = hb;
          reap_stale_[t] = 0;
          continue;
        }
        if (++reap_stale_[t] < kStaleScansBeforeProbe) continue;
        reap_stale_[t] = 0;
        if (!reg.certify_zombie(t, owner)) continue;
        departed = true;
      }
      neutralize(t);
      const uint64_t adopted = pt_[self_tid]->retire.adopt(pt.retire);
      pt.attached.store(false, std::memory_order_release);
      auto& st = pt_[self_tid]->stats;
      st.tids_reaped += 1;
      st.orphans_adopted += adopted;
      ++obs_reaped;
      if (obs::trace_on()) {
        obs::trace_event(obs::TraceKind::kZombieCertified, obs::now_ns(), 0,
                         static_cast<uint32_t>(t));
      }
      std::fprintf(stderr,
                   "popsmr: reaped dead tid %d (adopted %llu orphaned "
                   "retires)\n",
                   t, static_cast<unsigned long long>(adopted));
    }
    reap_mu_.store(false, std::memory_order_release);
    // Reap certification duration only when the pass actually certified
    // someone — the common empty scan would otherwise drown the signal.
    if (obs_timing && obs_reaped > 0) {
      obs::record_latency(obs::LatOp::kReap, obs::now_ns() - obs_t0);
    }
  }

  // ---- memory-pressure backstop ------------------------------------------
  //
  // Returns true when the caller should run a forced reclamation pass:
  // the domain-wide unreclaimed count exceeds the configured bound. The
  // hot path pays one counter increment; the snapshot only runs every
  // kPressureCheckEvery retires. Callers follow a forced pass with
  // pressure_relieved_or_warn() — if the pass could not get back under
  // the bound (a pinned reservation legitimately holds nodes), the
  // backstop degrades to defer-and-warn rather than blocking or looping.
  bool pressure_check(int tid) {
    if (cfg_.pressure_bound == 0) return false;
    auto& pt = *pt_[tid];
    if ((++pt.pressure_tick % kPressureCheckEvery) != 0) return false;
    if (stats_snapshot().unreclaimed() <= cfg_.pressure_bound) {
      pt.pressure_warned = false;
      return false;
    }
    pt.stats.pressure_events += 1;
    if (obs::trace_on()) {
      obs::trace_event(obs::TraceKind::kPressure, obs::now_ns(), 0,
                       static_cast<uint32_t>(tid));
    }
    return true;
  }

  void pressure_relieved_or_warn(int tid) {
    auto& pt = *pt_[tid];
    pt.stats.forced_handshakes += 1;
    const uint64_t now = stats_snapshot().unreclaimed();
    if (now <= cfg_.pressure_bound) {
      pt.pressure_warned = false;
      return;
    }
    if (!pt.pressure_warned) {
      pt.pressure_warned = true;
      std::fprintf(stderr,
                   "popsmr: memory pressure persists after forced pass "
                   "(unreclaimed=%llu > bound=%llu); deferring\n",
                   static_cast<unsigned long long>(now),
                   static_cast<unsigned long long>(cfg_.pressure_bound));
    }
  }

  // Allocates and constructs a node, stamping its birth era.
  template <class T, class... Args>
  T* create_node(uint64_t birth_era, Args&&... args) {
    static_assert(std::is_base_of_v<Reclaimable, T>,
                  "SMR-managed nodes must derive from smr::Reclaimable");
    T* n = runtime::PoolAllocator::instance().create<T>(
        std::forward<Args>(args)...);
    n->birth_era = birth_era;
    n->deleter = [](Reclaimable* r) {
      runtime::PoolAllocator::instance().destroy(static_cast<T*>(r));
    };
    // Batch hook: the sentinel lets sweeps free trivially destructible
    // nodes with zero per-node dispatch (the base-at-offset-0 check folds
    // to a constant); otherwise destroy in place and hand back the
    // allocation address for the batched splice.
    if (std::is_trivially_destructible_v<T> &&
        static_cast<void*>(n) == static_cast<void*>(
                                     static_cast<Reclaimable*>(n))) {
      n->batch_prep = &batch_prep_identity;
    } else {
      n->batch_prep = [](Reclaimable* r) noexcept -> void* {
        T* p = static_cast<T*>(r);
        p->~T();
        return p;
      };
    }
    return n;
  }

  // Batched reclamation pass over the caller's retire list: freeable
  // blocks are chained and returned to their heaps in grouped splices
  // (see PoolAllocator::FreeBatch) instead of one free per node. A pass
  // that can free only nodes retired before `era_floor` walks nothing
  // when the list holds none (RetireList::sweep_batch); it still records
  // its sweep span, with 0 freed.
  template <class Pred>
  uint64_t sweep_retired(int tid, Pred&& can_free,
                         uint64_t era_floor = RetireList::kNoEraFloor) {
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    runtime::PoolAllocator::FreeBatch batch;
    uint64_t freed;
    if (audit::on()) {
      // Audit wrapper: every block the sweep decides to free leaves the
      // shadow set here, so a recycled allocation retired again later is
      // a fresh insert, not a false double-retire.
      freed = pt_[tid]->retire.sweep_batch(
          [&](Reclaimable* node) {
            const bool f = can_free(node);
            if (f) shadow_.on_free(scheme_, tid, node);
            return f;
          },
          batch, era_floor);
    } else {
      freed = pt_[tid]->retire.sweep_batch(std::forward<Pred>(can_free), batch,
                                           era_floor);
    }
    if (obs_timing) {
      const uint64_t dt = obs::now_ns() - obs_t0;
      obs::record_latency(obs::LatOp::kSweep, dt);
      obs::trace_event(obs::TraceKind::kSweep, obs_t0, dt,
                       static_cast<uint32_t>(
                           freed > UINT32_MAX ? UINT32_MAX : freed));
    }
    return freed;
  }

  // Appends to the caller's retire list; returns the new length.
  uint64_t retire_push(int tid, Reclaimable* n, uint64_t retire_era) {
    auto& pt = *pt_[tid];
    if (audit::on()) shadow_.on_retire(scheme_, tid, n);
    n->retire_era = retire_era;
    pt.retire.push(n);
    pt.stats.retired += 1;
    if (obs::trace_on()) {  // guard keeps the clock read off the hot path
      obs::trace_event(obs::TraceKind::kRetire, obs::now_ns(), 0, 0);
    }
    if (pt.retire.length() > pt.stats.max_retire_len) {
      pt.stats.max_retire_len = pt.retire.length();
    }
    return pt.retire.length();
  }

  // Monotonic per-thread retire counter. Schemes whose reclamation pass
  // is expensive (the POP handshake, NBR's ack round) or whose sweeps can
  // legitimately keep nodes pinned (era schemes: any long-lived node's
  // lifespan intersects every current reservation) must trigger on this
  // — "one pass every threshold retires" — rather than on list length:
  // a length trigger re-runs the full pass on *every* retire once the
  // pinned population alone reaches the threshold, a reclamation storm
  // that degrades era-based publish-on-ping into a livelock.
  uint64_t retire_tick(int tid) { return ++pt_[tid]->retire_count; }

  RetireList& retire_list(int tid) { return pt_[tid]->retire; }
  ThreadStats& stats(int tid) { return pt_[tid]->stats; }

  // Contract-audit shadow state (tests inspect in_flight counts).
  audit::DomainShadow& audit_shadow() { return shadow_; }

  // Per-thread scratch for reservation scans (kMaxThreads * kMaxSlots
  // words ≈ 9 KiB). Owner-thread only; lazily allocated on the first
  // reclamation pass so idle (thread, domain) pairs cost nothing — and
  // every scheme's reclaim stops re-declaring it on the stack.
  uintptr_t* scan_scratch(int tid) {
    auto& pt = *pt_[tid];
    if (!pt.scan_scratch) {
      pt.scan_scratch = std::make_unique<uintptr_t[]>(
          static_cast<std::size_t>(runtime::kMaxThreads) * kMaxSlots);
    }
    return pt.scan_scratch.get();
  }

  StatsSnapshot stats_snapshot() const {
    StatsSnapshot s;
    // Same bound as teardown: slots past the attach high-water have never
    // been written (the mem-timeline sampler calls this at cadence, and a
    // sharded service multiplies it by the shard count).
    const int hi = hi_tid_.load(std::memory_order_acquire);
    for (int t = 0; t <= hi; ++t) s.absorb(pt_[t]->stats);
    return s;
  }

  // Largest tid that ever attached to this domain (-1: none); bounds
  // per-domain sweeps the way ThreadRegistry::max_tid bounds global ones.
  int max_attached_tid() const {
    return hi_tid_.load(std::memory_order_acquire);
  }

  DomainCore(const DomainCore&) = delete;
  DomainCore& operator=(const DomainCore&) = delete;

 private:
  // Heartbeat-frozen reap passes before spending a tgkill probe on a
  // same-epoch registered laggard.
  static constexpr uint8_t kStaleScansBeforeProbe = 2;
  // Retires between domain-wide unreclaimed snapshots for the pressure
  // backstop (the snapshot walks hi_tid_ slots).
  static constexpr uint64_t kPressureCheckEvery = 32;

  struct PerThread {
    RetireList retire;
    ThreadStats stats;
    uint64_t retire_count = 0;  // owner-thread only
    uint64_t pressure_tick = 0;  // owner-thread only
    bool pressure_warned = false;  // owner-thread only
    std::unique_ptr<uintptr_t[]> scan_scratch;  // owner-thread only
    std::atomic<bool> attached{false};
    // Registry epoch of the thread this slot's state belongs to; lets the
    // reaper (and a recycled-tid attacher) tell a live owner from a
    // corpse. Relaxed everywhere: change-detection only.
    std::atomic<uint64_t> owner_epoch{0};
  };

  // Slow path of attach_if_new: first attach, or takeover of a slot whose
  // previous owner departed without detaching. Serialized against
  // reap_dead by the reap lock so a reaper can never neutralize state the
  // new owner just initialized (and vice versa).
  bool attach_slow(int tid) {
    auto& reg = runtime::ThreadRegistry::instance();
    while (reap_mu_.exchange(true, std::memory_order_acquire)) {
      while (reap_mu_.load(std::memory_order_relaxed)) {
      }
    }
    auto& pt = *pt_[tid];
    // High-water mark of attached tids, raised before the attach flag so
    // teardown/snapshot sweeps bounded by it can never miss this slot.
    int hw = hi_tid_.load(std::memory_order_relaxed);
    while (hw < tid &&
           !hi_tid_.compare_exchange_weak(hw, tid, std::memory_order_acq_rel)) {
    }
    pt.owner_epoch.store(reg.slot_epoch(tid), std::memory_order_relaxed);
    pt.attached.store(true, std::memory_order_release);
    reap_mu_.store(false, std::memory_order_release);
    return true;
  }

  SmrConfig cfg_;
  const char* scheme_;
  audit::DomainShadow shadow_;
  std::atomic<int> hi_tid_{-1};
  std::atomic<bool> reap_mu_{false};
  // Reaper bookkeeping, guarded by reap_mu_ (no atomics needed).
  uint64_t reap_hb_[runtime::kMaxThreads] = {};
  uint8_t reap_stale_[runtime::kMaxThreads] = {};
  runtime::Padded<PerThread> pt_[runtime::kMaxThreads];
};

// Frees a node that was created but never published into the shared
// structure (e.g. a failed insert's fresh node): no reclamation protocol
// is needed because no other thread can have seen it.
template <class T>
void destroy_unpublished(T* p) noexcept {
  runtime::PoolAllocator::instance().destroy(p);
}

// ---- batch bracket ---------------------------------------------------------
//
// A pipelined front end (the networked KV server) drains a whole batch of
// point operations per wakeup. Opening and closing the scheme's operation
// bracket once per *batch* instead of once per op amortizes the per-op
// entry cost — for the epoch/era schemes that is the seq_cst announcement
// store, the exact cost axis the paper measures — at the price of holding
// the entry-time reservation for the whole batch (a strictly longer
// operation, which every scheme already supports: park_in_operation holds
// a bare bracket for an unbounded sleep).
//
// Mechanism: IKV::batch_begin() opens the domain bracket(s) and bumps the
// calling thread's batch depth; while the depth is non-zero, OpGuard
// skips its begin_op/end_op pair because the batch's bracket is already
// open. NBR is excluded (OpGuard never skips for kNeutralizes schemes):
// its neutralization longjmp targets the checkpoint armed by the current
// operation's stack frame, so the read-phase flag must be cleared by each
// op's own end_op — a skipped end_op would leave a live checkpoint
// pointing into a dead frame.
//
// Contract: between batch_begin and the matching batch_end the calling
// thread must operate only on the map whose bracket it opened (the depth
// is thread-global, not per-domain — an op on an unbracketed map would
// silently skip its guard). The bracket must never be held across a
// blocking wait (the server brackets the drain of already-buffered bytes,
// never the epoll_wait).
namespace detail {
inline thread_local uint32_t tl_batch_depth = 0;
}  // namespace detail

inline void batch_scope_enter() { ++detail::tl_batch_depth; }
inline void batch_scope_exit() { --detail::tl_batch_depth; }
inline bool in_batch_scope() { return detail::tl_batch_depth != 0; }

// RAII operation bracket used by the data structures:
//   typename Smr::Guard g(smr);
template <class Domain>
class OpGuard {
 public:
  // smr-lint: allow(R3) — OpGuard IS the begin_op/end_op bracket.
  explicit OpGuard(Domain& d)
      : d_(d), skip_(!Domain::kNeutralizes && in_batch_scope()) {
    // Audit bracket depth: a skipped guard is still inside the batch
    // bracket (which did its own audit::bracket_enter), so only count the
    // brackets this guard actually opens.
    if (!skip_) {
      d_.begin_op();
      audit::bracket_enter();
    }
  }
  ~OpGuard() {  // smr-lint: allow(R3) — closes the bracket the ctor opened
    if (!skip_) {
      audit::bracket_exit();
      d_.end_op();
    }
  }
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  Domain& d_;
  const bool skip_;
};

}  // namespace pop::smr
