// NBR+ — neutralization-based reclamation (Singh, Brown & Mashtizadeh,
// PPoPP'21 / TPDS'24), the signal-based baseline the paper contrasts POP
// against.
//
// Operations are split into a *read phase* (traversal; pointers held
// unprotected) and a *write phase* (mutation; the needed pointers are
// reserved first). A reclaimer pings all threads; a thread caught in its
// read phase is *neutralized*: its handler publishes and hands the signal
// bus its checkpoint, and the bus siglongjmps back to it, discarding every
// pointer the thread held. A thread in its write phase merely publishes —
// its reservations protect the nodes it will touch. Once every thread has
// published, the reclaimer frees everything not reserved.
//
// The + is the shared publish-counter wave: NBR+ reclaims with
// HazardPtrPOP's pass (OnPing's PopEngine handshake, then a sweep against
// the published pointers). Its write-phase reservations are the engine's
// private slots, and the armed restart target sits in the engine's
// per-thread row, so one bus client per (domain, thread) serves both.
// Concurrent reclaimers, in this domain or any other, coalesce on one
// wave, and a corpse or a lost signal is handled by the wave's probe and
// watchdog.
//
// This is exactly the behaviour Figure 4 punishes: long-running readers
// are restarted from scratch whenever any reclaimer frees, which POP
// avoids. The restart count is exported in the stats as `neutralized`.
#pragma once

#include <atomic>
#include <csetjmp>

#include "smr/checkpoint.hpp"
#include "smr/domain_base.hpp"
#include "smr/hazard_domain.hpp"

namespace pop::smr {

class NbrDomain {
 public:
  static constexpr const char* kName = "NBR";
  static constexpr bool kNeutralizes = true;
  using Guard = OpGuard<NbrDomain>;

  explicit NbrDomain(const SmrConfig& cfg = {})
      : core_(cfg, kName), pub_(cfg) {}

  void attach() {
    const int tid = runtime::my_tid();
    // A fresh attach or a recycled-tid takeover starts disarmed with empty
    // slots (the engine's attach resets the row).
    if (core_.attach_if_new(tid)) pub_.attach(tid);
  }
  void detach() {
    const int tid = runtime::my_tid();
    pub_.detach(tid);
    core_.mark_detached(tid);
  }

  void begin_op() { attach(); }

  void end_op() {
    const int tid = runtime::my_tid();
    pub_.engine().arm_restart(tid, nullptr);
    pub_.clear(tid);
    // Run any reclamation that was deferred because the threshold was
    // crossed during a read phase.
    if (pt_[tid]->reclaim_deferred) {
      pt_[tid]->reclaim_deferred = false;
      reclaim(tid);
    }
  }

  // ---- checkpoint protocol (used via POPSMR_CHECKPOINT) -------------------

  sigjmp_buf& jmp_env() { return pt_[runtime::my_tid()]->env; }

  // Runs after a neutralization longjmp, before the traversal restarts.
  void on_restart() {
    const int tid = runtime::my_tid();
    pub_.clear(tid);
    core_.stats(tid).neutralized += 1;
  }

  void arm_read_phase() {
    const int tid = runtime::my_tid();
    pub_.engine().arm_restart(tid, &pt_[tid]->env);
  }

  // ---- reads ----------------------------------------------------------------

  // Read-phase loads are deliberately unprotected; neutralization makes
  // holding them safe (any reclaim round would have restarted us first).
  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  // ---- write phase -----------------------------------------------------------

  // Reserves the nodes the write phase will touch, then suppresses
  // neutralization. Order matters: if a ping lands between the
  // reservations and the disarm the handler still restarts us, and
  // on_restart drops the reservations.
  void enter_write_phase(
      std::initializer_list<const Reclaimable*> to_reserve = {}) {
    const int tid = runtime::my_tid();
    int s = 0;
    for (const Reclaimable* r : to_reserve) {
      pub_.reserve(tid, s++, reinterpret_cast<uintptr_t>(r));
    }
    // seq_cst signal fence: compiler-only barrier — the handler runs on
    // this same thread, so the slot stores above just must not sink past
    // the disarm the handler inspects.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    pub_.engine().arm_restart(tid, nullptr);
  }

  // Leave the write phase and fall back to the read phase (either to keep
  // traversing, as HML's helping does, or to retry from the checkpoint).
  // The restart is re-armed before the reservations are dropped: the
  // operation's jmp_env is still live, and any pointer the caller keeps
  // using must be covered by one or the other at every instant.
  void exit_write_phase() {
    const int tid = runtime::my_tid();
    pub_.engine().arm_restart(tid, &pt_[tid]->env);
    // seq_cst signal fence: the re-arm must not sink past the clears.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    pub_.clear(tid);
  }

  // ---- memory -----------------------------------------------------------------

  template <class T, class... Args>
  T* create(Args&&... args) {
    return core_.create_node<T>(0, std::forward<Args>(args)...);
  }

  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire_push(tid, n, 0);
    // Never reclaim while neutralizable: a longjmp out of the sweep would
    // corrupt the retire list. Deferred work runs at end_op.
    const bool neutralizable = pub_.engine().restart_armed(tid);
    if (core_.retire_tick(tid) % core_.config().retire_threshold == 0) {
      if (!neutralizable) {
        reclaim(tid);
      } else {
        pt_[tid]->reclaim_deferred = true;
      }
    } else if (core_.pressure_check(tid)) {
      if (!neutralizable) {
        reclaim(tid);
        core_.pressure_relieved_or_warn(tid);
      } else {
        pt_[tid]->reclaim_deferred = true;
      }
    }
  }

  StatsSnapshot stats() const { return core_.stats_snapshot(); }
  const SmrConfig& config() const { return core_.config(); }

 private:
  // HazardPtrPOP's pass: certify corpses, run the wave (every read-phase
  // thread restarts, every write-phase thread publishes), sweep.
  void reclaim(int tid) {
    hazard_pass<PointerReservation>(core_, pub_, tid,
                                    [this](int t) { pub_.reap(t); });
  }

  struct PerThread {
    sigjmp_buf env;
    bool reclaim_deferred = false;  // owner-thread only
  };

  DomainCore core_;
  OnPing pub_;
  runtime::Padded<PerThread> pt_[runtime::kMaxThreads];
};

}  // namespace pop::smr
