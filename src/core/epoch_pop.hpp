// EpochPOP — epoch-based reclamation with a publish-on-ping fallback
// (paper Algorithm 3). The paper's headline hybrid: EBR speed in the
// common case, hazard-pointer robustness when threads stall.
//
// Threads run classic EBR (announce epoch on entry, quiesce on exit) and
// *simultaneously* track hazard-pointer-style reservations privately, via
// the fence-free read of HazardPtrPOP. It is built from exactly those two
// parts: EBR's EpochAnnouncements and HazardPtrPOP's pointer reservation
// published on ping. Reclamation:
//
//   every retire_threshold retires  -> EBR-mode sweep (free nodes retired
//                                      before the min announced epoch);
//   list still >= C*retire_threshold -> a thread delay is suspected: run
//                                      the POP handshake and free every
//                                      node not in the published
//                                      reservations, ignoring epochs.
//
// There is no global mode switch (contrast Qsense): one thread can be
// reclaiming in EBR mode while another pings — reclaimers act
// independently, which is exactly Algorithm 3's structure.
#pragma once

#include <atomic>
#include <cstdint>

#include "smr/domain_base.hpp"
#include "smr/ebr.hpp"
#include "smr/hazard_domain.hpp"

namespace pop::core {

class EpochPopDomain {
 public:
  static constexpr const char* kName = "EpochPOP";
  static constexpr bool kNeutralizes = false;
  using Guard = smr::OpGuard<EpochPopDomain>;

  explicit EpochPopDomain(const smr::SmrConfig& cfg = {})
      : core_(cfg, kName), pop_(cfg), epochs_(cfg) {}

  void attach() {
    const int tid = runtime::my_tid();
    if (core_.attach_if_new(tid)) {
      epochs_.quiesce(tid);
      pop_.attach(tid);
    }
  }
  void detach() {
    const int tid = runtime::my_tid();
    epochs_.quiesce(tid);
    pop_.detach(tid);
    core_.mark_detached(tid);
  }

  // Algorithm 3 startOp().
  void begin_op() {
    attach();
    epochs_.announce(runtime::my_tid());
  }

  // Algorithm 3 endOp(): announce quiescence and drop local reservations.
  void end_op() {
    const int tid = runtime::my_tid();
    epochs_.quiesce(tid);
    pop_.clear(tid);
  }

  // Algorithm 3 read(): the fence-free private reservation of
  // HazardPtrPOP, maintained alongside the epoch announcement.
  template <class T>
  T* protect(int slot, const std::atomic<T*>& src) {
    return smr::PointerReservation::protect(pop_, runtime::my_tid(), slot,
                                            src);
  }
  void copy_slot(int dst, int src) { pop_.copy(runtime::my_tid(), dst, src); }
  void clear() { pop_.clear(runtime::my_tid()); }

  template <class T, class... Args>
  T* create(Args&&... args) {
    return core_.create_node<T>(epochs_.current(),
                                std::forward<Args>(args)...);
  }

  // Algorithm 3 retire().
  void retire(smr::Reclaimable* n) {
    const int tid = runtime::my_tid();
    const uint64_t len = core_.retire_push(tid, n, epochs_.current());
    const auto& cfg = core_.config();
    if (len % cfg.retire_threshold == 0) {
      core_.stats(tid).ebr_frees +=
          epochs_.sweep(core_, tid, [this](int t) { reap_tid(t); });
    }
    if (core_.retire_list(tid).length() >=
        cfg.pop_multiplier * cfg.retire_threshold) {
      reclaim_pop(tid);  // a delayed thread is suspected
    } else if (core_.pressure_check(tid)) {
      reclaim_pop(tid);  // backstop goes straight to the robust path
      core_.pressure_relieved_or_warn(tid);
    }
  }

  void enter_write_phase(std::initializer_list<const smr::Reclaimable*> = {}) {
  }
  void exit_write_phase() {}

  smr::StatsSnapshot stats() const { return core_.stats_snapshot(); }
  const smr::SmrConfig& config() const { return core_.config(); }
  uint64_t current_epoch() const { return epochs_.current(); }

 private:
  // Neutralizes a certified-dead tid: zero its engine slots and park its
  // announced epoch at quiescent so a corpse cannot pin the epoch sweep.
  void reap_tid(int t) {
    pop_.reap(t);
    epochs_.quiesce(t);
  }

  // Algorithm 3 lines 27-30: the POP fallback, HazardPtrPOP's pass. Frees
  // everything not in the published hazard reservations, ignoring epochs
  // entirely — safe because every access is preceded by a validated
  // (private) reservation. A wave that times out defers the sweep.
  void reclaim_pop(int tid) {
    core_.stats(tid).pop_frees += smr::hazard_pass<smr::PointerReservation>(
        core_, pop_, tid, [this](int t) { reap_tid(t); });
  }

  smr::DomainCore core_;
  smr::OnPing pop_;
  smr::EpochAnnouncements epochs_;
};

}  // namespace pop::core
