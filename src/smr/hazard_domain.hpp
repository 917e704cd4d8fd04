// HazardDomain — the one reservation domain behind HP, HPAsym, HE and
// their publish-on-ping twins HazardPtrPOP and HazardEraPOP.
//
// The paper's claim is that publish-on-ping is a drop-in replacement for
// hazard pointers and hazard eras: only the way a reservation becomes
// visible to a reclaimer changes. So a domain here is two choices:
//
//   Kind     what a slot reserves: a node address (PointerReservation) or
//            an era (EraReservation). It owns the protect loop, the
//            birth/retire stamp, the bump before a pass and the sweep
//            predicate.
//   Publish  how a reservation becomes visible: Fenced (a seq_cst store
//            per reservation), Asymmetric (a plain store, made visible by
//            one process-wide heavy fence per pass) or OnPing (a private
//            store, published by a signal handler when a reclaimer pings).
//            It owns where the slots live, the reserve store, a row's
//            attach/detach/reap, and the step before a scan.
//
//              Fenced   Asymmetric   OnPing
//   pointer    HP       HPAsym       HazardPtrPOP   (paper Alg. 1+2)
//   era        HE       -            HazardEraPOP   (paper Alg. 4, 5)
//
// Every instantiation reclaims on the same cadence: one pass per
// retire_threshold retires (a tick, not the list length: see retire()),
// plus the memory-pressure backstop; era kinds bump the era before every
// pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "core/pop_engine.hpp"
#include "runtime/asym_fence.hpp"
#include "smr/domain_base.hpp"
#include "smr/hp_slots.hpp"
#include "smr/tagged.hpp"

namespace pop::smr {

// ---- reservation kinds ----------------------------------------------------

// Michael's hazard pointers: a slot names the node. protect() reserves the
// pointer, then re-reads the source to validate that the target was still
// reachable after the reservation became visible (or will be, by the
// policy's step before a scan).
struct PointerReservation {
  template <class Publish, class T>
  static T* protect(Publish& pub, int tid, int slot,
                    const std::atomic<T*>& src) {
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      pub.reserve(tid, slot, reinterpret_cast<uintptr_t>(strip_mark(p)));
      T* q = src.load(std::memory_order_acquire);
      if (q == p) return p;
      p = q;
    }
  }
  uint64_t era() const { return 0; }  // pointer nodes carry no lifespan
  void bump() {}
  static bool can_free(const uintptr_t* sorted, int n,
                       const Reclaimable* node) {
    return !SlotTable::contains(sorted, n, reinterpret_cast<uintptr_t>(node));
  }
};

// Hazard eras (Ramalhete & Correia; paper Alg. 4): a slot reserves the
// global era, and each node records its lifespan [birth_era, retire_era].
// A reservation store is needed only when the era changed since the
// slot's last reservation, which amortizes publishing — but a reserved era
// pins every node whose lifespan intersects it.
//
// Safety with OnPing is Property 6: a reader that reserved era e before
// the handshake has e published when the reclaimer scans; a reader that
// reserves after the handshake observes an era >= the bump that precedes
// the victim's pass, so its reservation cannot intersect the victim's
// lifespan retroactively.
class EraReservation {
 public:
  template <class Publish, class T>
  T* protect(Publish& pub, int tid, int slot,
             const std::atomic<T*>& src) const {
    uintptr_t prev = pub.value(tid, slot);
    for (;;) {
      T* p = src.load(std::memory_order_acquire);
      const uint64_t e = era_.load(std::memory_order_acquire);
      if (e == prev) return p;  // era unchanged: reservation already covers p
      pub.reserve(tid, slot, e);
      prev = e;
    }
  }
  uint64_t era() const { return era_.load(std::memory_order_acquire); }
  void bump() { era_.fetch_add(1, std::memory_order_acq_rel); }  // Alg. 4:21
  // Freeable iff no reserved era e with birth <= e <= retire.
  static bool can_free(const uintptr_t* sorted, int n,
                       const Reclaimable* node) {
    const uintptr_t* lo = std::lower_bound(sorted, sorted + n, node->birth_era);
    return lo == sorted + n || *lo > node->retire_era;
  }

 private:
  std::atomic<uint64_t> era_{1};  // 0 is reserved for "no era"
};

// ---- publication policies -------------------------------------------------

// Books a ping wave's outcome on the reclaimer's stats. False when a live
// thread never published: its reservations are invisible, so no subset of
// the retire list is provably safe and the caller defers the sweep
// (bounded memory degrades, safety does not).
inline bool wave_complete(ThreadStats& st, const core::HandshakeResult& hs) {
  st.signals_sent += static_cast<uint64_t>(hs.sent);
  if (hs.complete()) return true;
  st.waves_timed_out += 1;
  return false;
}

// HP, HE: every reservation is visible the moment it is made, so a scan
// needs no step before it. Slots live in one shared SWMR table.
class Fenced {
 public:
  explicit Fenced(const SmrConfig& cfg) : nslots_(cfg.num_slots) {}

  void reserve(int tid, int slot, uintptr_t v) {
    // seq_cst store: publish + StoreLoad fence in one instruction (an xchg
    // on x86 — the exact per-read cost the paper attributes to HP).
    slots_.at(tid, slot).store(v, std::memory_order_seq_cst);
  }
  uintptr_t value(int tid, int slot) const {
    return slots_.at(tid, slot).load(std::memory_order_relaxed);
  }
  void copy(int tid, int dst, int src) {
    slots_.at(tid, dst).store(value(tid, src), std::memory_order_release);
  }
  void clear(int tid) { slots_.clear_row(tid, nslots_); }

  // A fresh attach or a recycled-tid takeover drops any values a dead
  // previous owner left (they only pin memory, never protect us).
  void attach(int tid) { clear(tid); }
  void detach(int tid) { clear(tid); }
  void reap(int tid) { clear(tid); }

  bool make_visible(ThreadStats&, int) { return true; }
  int collect(uintptr_t* out) const { return slots_.collect(nslots_, out); }

 protected:
  int nslots_;
  SlotTable slots_;
};

// HPAsym, the Folly-style hazard pointers the paper adds to the NBR
// benchmark (§5: "an optimized Linux sys_membarrier-based version of HP").
// A reservation is a plain store and a compiler-only barrier; the
// StoreLoad ordering classic HP buys per read is supplied once per pass
// by a heavy process-wide fence. Either the reader's reservation is
// visible to the scan, or its validation re-read observes the unlink.
// The heavy fence is sys_membarrier; where the syscall is missing it is a
// ping wave of a zero-slot PopEngine, whose handler is one seq_cst fence
// plus a counter bump (what liburcu did before sys_membarrier existed).
class Asymmetric : public Fenced {
 public:
  explicit Asymmetric(const SmrConfig& cfg) : Fenced(cfg) {
    if (runtime::AsymFence::instance().backend() ==
        runtime::AsymBackend::kSignalBroadcast) {
      fallback_.emplace(0, cfg.ping_timeout_ms);
    }
  }

  void reserve(int tid, int slot, uintptr_t v) {
    slots_.at(tid, slot).store(v, std::memory_order_release);
    runtime::AsymFence::light_fence();  // compiler barrier only
  }
  void attach(int tid) {
    clear(tid);
    if (fallback_) fallback_->attach(tid);
  }
  void detach(int tid) {
    clear(tid);
    if (fallback_) fallback_->detach(tid);
  }
  void reap(int tid) {
    clear(tid);
    if (fallback_) fallback_->reap(tid);
  }
  bool make_visible(ThreadStats& st, int tid) {
    if (!fallback_) {
      runtime::AsymFence::instance().heavy_fence();
      return true;
    }
    return wave_complete(st, fallback_->ping_all_and_wait(tid));
  }

 private:
  std::optional<core::PopEngine> fallback_;
};

// Publish on ping (paper §3): a reservation is a private relaxed store —
// no fence, no shared write ("no store load fence needed", Alg. 1 line
// 12). Before a scan the reclaimer pings every attached thread and waits
// until each handler has copied its private slots to the shared table.
//
// Safety (Property 2): when the reclaimer scans, every reservation made
// before the handshake completed is visible; a reservation made after must
// have validated its source *after* the node was unlinked, so it cannot
// name a node in this reclaimer's retire list. Robustness (Property 3): at
// most threshold + N*H nodes stay unreclaimed.
class OnPing {
 public:
  explicit OnPing(const SmrConfig& cfg)
      : engine_(cfg.num_slots, cfg.ping_timeout_ms) {}

  void reserve(int tid, int slot, uintptr_t v) {
    engine_.reserve_local(tid, slot, v);  // no store-load fence needed
  }
  uintptr_t value(int tid, int slot) const {
    return engine_.local_value(tid, slot);
  }
  void copy(int tid, int dst, int src) { reserve(tid, dst, value(tid, src)); }
  void clear(int tid) { engine_.clear_local(tid); }

  void attach(int tid) { engine_.attach(tid); }
  void detach(int tid) { engine_.detach(tid); }
  void reap(int tid) { engine_.reap(tid); }

  bool make_visible(ThreadStats& st, int tid) {
    const auto hs = engine_.ping_all_and_wait(tid);
    st.pings_received = engine_.pings_received(tid);
    return wave_complete(st, hs);
  }
  int collect(uintptr_t* out) const { return engine_.collect_shared(out); }

  core::PopEngine& engine() { return engine_; }

 private:
  core::PopEngine engine_;
};

// ---- the domain -----------------------------------------------------------

// One hazard reclamation pass, shared by every HazardDomain and by
// EpochPOP's fallback: certify dead threads and neutralize their
// reservations, make every live reservation visible (the policy may defer
// the pass), collect the reserved values and free each retired node the
// kind finds unreserved. Returns the number freed.
template <class Kind, class Publish, class Neutralize>
uint64_t hazard_pass(DomainCore& core, Publish& pub, int tid,
                     Neutralize&& neutralize) {
  auto& st = core.stats(tid);
  core.reap_dead(tid, neutralize);
  if (!pub.make_visible(st, tid)) return 0;
  uintptr_t* reserved = core.scan_scratch(tid);
  const int n = pub.collect(reserved);  // sorted
  st.scans += 1;
  const uint64_t freed = core.sweep_retired(tid, [&](Reclaimable* node) {
    return Kind::can_free(reserved, n, node);
  });
  st.freed += freed;
  return freed;
}

template <class Kind, class Publish>
class HazardDomain {
 public:
  static constexpr bool kNeutralizes = false;

  void attach() {
    const int tid = runtime::my_tid();
    if (core_.attach_if_new(tid)) pub_.attach(tid);
  }
  void detach() {
    const int tid = runtime::my_tid();
    pub_.detach(tid);
    core_.mark_detached(tid);
  }

  void begin_op() { attach(); }
  void end_op() { clear(); }

  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    return kind_.protect(pub_, runtime::my_tid(), slot, src);
  }
  void copy_slot(int dst, int src) { pub_.copy(runtime::my_tid(), dst, src); }
  void clear() { pub_.clear(runtime::my_tid()); }

  template <class T, class... Args>
  T* create(Args&&... args) {
    return core_.create_node<T>(kind_.era(), std::forward<Args>(args)...);
  }

  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    core_.retire_push(tid, n, kind_.era());
    // Tick-based trigger: one pass per `retire_threshold` retires. A
    // length trigger would re-run the pass on every retire while the list
    // holds reserved (unfreeable) nodes: under POP a signal storm, and
    // under eras the common case — a reserved era pins *every* node whose
    // lifespan intersects it (e.g. all prefill-born nodes), so the list
    // legitimately sits above the threshold.
    if (core_.retire_tick(tid) % core_.config().retire_threshold == 0) {
      reclaim(tid);
    } else if (core_.pressure_check(tid)) {
      reclaim(tid);
      core_.pressure_relieved_or_warn(tid);
    }
  }

  void enter_write_phase(std::initializer_list<const Reclaimable*> = {}) {}
  void exit_write_phase() {}

  StatsSnapshot stats() const { return core_.stats_snapshot(); }
  const SmrConfig& config() const { return core_.config(); }
  uint64_t current_era() const
    requires std::is_same_v<Kind, EraReservation>
  {
    return kind_.era();
  }

 protected:
  HazardDomain(const SmrConfig& cfg, const char* name)
      : core_(cfg, name), pub_(cfg) {}

 private:
  void reclaim(int tid) {
    kind_.bump();  // eras: the bump Property 6 needs, before every pass
    hazard_pass<Kind>(core_, pub_, tid, [this](int t) { pub_.reap(t); });
  }

  DomainCore core_;
  Publish pub_;
  Kind kind_;
};

// Named classes, not aliases: a data structure instantiated on HeDomain
// carries that name in every frame, which tsan.supp's per-scheme
// patterns match.
class HpDomain : public HazardDomain<PointerReservation, Fenced> {
 public:
  static constexpr const char* kName = "HP";
  using Guard = OpGuard<HpDomain>;
  explicit HpDomain(const SmrConfig& cfg = {}) : HazardDomain(cfg, kName) {}
};

class HpAsymDomain : public HazardDomain<PointerReservation, Asymmetric> {
 public:
  static constexpr const char* kName = "HPAsym";
  using Guard = OpGuard<HpAsymDomain>;
  explicit HpAsymDomain(const SmrConfig& cfg = {})
      : HazardDomain(cfg, kName) {}
};

class HeDomain : public HazardDomain<EraReservation, Fenced> {
 public:
  static constexpr const char* kName = "HE";
  using Guard = OpGuard<HeDomain>;
  explicit HeDomain(const SmrConfig& cfg = {}) : HazardDomain(cfg, kName) {}
};

}  // namespace pop::smr

namespace pop::core {

class HazardPtrPopDomain
    : public smr::HazardDomain<smr::PointerReservation, smr::OnPing> {
 public:
  static constexpr const char* kName = "HazardPtrPOP";
  using Guard = smr::OpGuard<HazardPtrPopDomain>;
  explicit HazardPtrPopDomain(const smr::SmrConfig& cfg = {})
      : HazardDomain(cfg, kName) {}
};

class HazardEraPopDomain
    : public smr::HazardDomain<smr::EraReservation, smr::OnPing> {
 public:
  static constexpr const char* kName = "HazardEraPOP";
  using Guard = smr::OpGuard<HazardEraPopDomain>;
  explicit HazardEraPopDomain(const smr::SmrConfig& cfg = {})
      : HazardDomain(cfg, kName) {}
};

}  // namespace pop::core
