// BRC — batched reference-counted reclamation, the repo's stand-in for
// Crystalline (appendix Figures 10-11; the fig10-11 preset in
// src/workload/scenarios.cpp states why the comparison survives the swap).
//
// Crystalline/Hyaline free a retired batch when the last reader that
// could reference it departs, using distributed reference counts instead
// of reservation scans. We reproduce that *shape* with an SRCU-style
// two-phase scheme: readers announce entry/exit on per-thread sharded
// counters tagged with the current phase; a reclaimer flips the phase and
// waits until both phases drain (two grace periods), after which every
// node retired before the flip is unreferenced and the whole batch is
// freed at once.
//
// Reader cost: one SWMR counter store + fence per operation (no per-read
// work) — the same fast-reader/low-memory profile the Crystalline
// comparison exhibits. Like EBR it is not robust: a parked reader delays
// grace periods (the bench harness reports this in the memory metrics).
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/backoff.hpp"
#include "smr/domain_base.hpp"
#include "smr/tagged.hpp"

namespace pop::smr {

class BrcDomain {
 public:
  static constexpr const char* kName = "BRC";
  static constexpr bool kNeutralizes = false;
  using Guard = OpGuard<BrcDomain>;

  explicit BrcDomain(const SmrConfig& cfg = {}) : core_(cfg, kName) {}

  void attach() {
    const int tid = runtime::my_tid();
    if (core_.attach_if_new(tid)) {
      // Takeover of a recycled tid: the dead previous owner may have died
      // inside a critical section, leaving enters > exits. Balance the
      // shard before this thread's first announcement or every future
      // drain of that phase spins forever.
      balance_corpse(tid);
    }
  }
  void detach() { core_.mark_detached(runtime::my_tid()); }

  void begin_op() {
    attach();
    const int tid = runtime::my_tid();
    auto& pt = *pt_[tid];
    // Announce-and-revalidate (the classic SRCU entry subtlety): between
    // reading the phase and announcing, a reclaimer can flip that phase
    // and run its drain — the drain balances before our announcement
    // lands, the batch frees, and the critical section runs unprotected
    // (observed in practice as a reader traversing recycled node memory;
    // found by the TSan CI job). So announce, then re-read the phase:
    // unchanged means any later flip's drain is seq_cst-after our entry
    // store and must count us; changed means we might have been missed —
    // withdraw (rebalancing the shard for the drain that skipped us) and
    // re-announce. The comparison is on the FULL counter, not the parity:
    // one reclaim pass flips twice, so parity alone revalidates
    // spuriously when both flips (and both drains) land inside the
    // window. Flips are reclaim-rate rare, so the loop almost never
    // iterates.
    for (;;) {
      const uint64_t ph = phase_.load(std::memory_order_seq_cst);  // seq_cst
      const uint32_t p = static_cast<uint32_t>(ph) & 1u;
      // The announce is totally ordered against the drain's phase flip:
      // either the flip sees this entry or the revalidation sees the
      // flip — never neither. Hence seq_cst.
      pt.enters[p].store(pt.enters[p].load(std::memory_order_relaxed) + 1,
                         std::memory_order_seq_cst);
      // seq_cst revalidate: must not reorder before the announce above.
      if (phase_.load(std::memory_order_seq_cst) == ph) {
        pt.my_phase = p;
        break;
      }
      // seq_cst withdraw: keeps the stale shard balanced for its drain.
      pt.exits[p].store(pt.exits[p].load(std::memory_order_relaxed) + 1,
                        std::memory_order_seq_cst);
    }
  }

  void end_op() {
    const int tid = runtime::my_tid();
    auto& pt = *pt_[tid];
    const uint32_t p = pt.my_phase;
    pt.exits[p].store(pt.exits[p].load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    // Grace periods block, so they must run outside the critical section:
    // a reclaimer waiting for readers while itself counted as a reader
    // would deadlock against a second reclaimer doing the same.
    if (pt.reclaim_pending) {
      pt.reclaim_pending = false;
      reclaim(tid);
      if (pt.pressure_forced) {
        pt.pressure_forced = false;
        core_.pressure_relieved_or_warn(tid);
      }
    }
  }

  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  template <class T, class... Args>
  T* create(Args&&... args) {
    return core_.create_node<T>(0, std::forward<Args>(args)...);
  }

  void retire(Reclaimable* n) {
    const int tid = runtime::my_tid();
    if (core_.retire_push(tid, n, 0) >= core_.config().retire_threshold) {
      pt_[tid]->reclaim_pending = true;  // executed at end_op
    } else if (core_.pressure_check(tid)) {
      // Grace periods block, so even the forced pass must wait for
      // end_op; mark it so the backstop accounting runs after the pass.
      pt_[tid]->reclaim_pending = true;
      pt_[tid]->pressure_forced = true;
    }
  }

  void enter_write_phase(std::initializer_list<const Reclaimable*> = {}) {}
  void exit_write_phase() {}

  StatsSnapshot stats() const { return core_.stats_snapshot(); }
  const SmrConfig& config() const { return core_.config(); }

 private:
  // Two grace periods: after both, every reader that was in a critical
  // section when reclaim() began has exited, so every node unlinked and
  // retired before that point is unreferenced.
  void reclaim(int tid) {
    core_.reap_dead(tid, [this](int t) { balance_corpse(t); });
    for (int round = 0; round < 2; ++round) {
      // Orders against readers' announce-and-revalidate (begin_op): a
      // reader whose entry predates the flip is always visible to the
      // drain below — hence seq_cst on the flip.
      const uint32_t old_phase = static_cast<uint32_t>(
          phase_.fetch_add(1, std::memory_order_seq_cst) & 1u);
      drain(old_phase, tid);
    }
    auto& st = core_.stats(tid);
    st.scans += 1;
    st.freed += core_.sweep_retired(tid, [](Reclaimable*) { return true; });
  }

  void drain(uint32_t p, int self) {
    const int hi = runtime::ThreadRegistry::instance().max_tid();
    for (int t = 0; t <= hi; ++t) {
      auto& pt = *pt_[t];
      runtime::SpinThenYield waiter;
      uint32_t spins = 0;
      // Late entries into phase p (threads that read the phase just before
      // the flip) still increment enters[p] and eventually exits[p]; spin
      // until the shard balances. seq_cst reads: an entry store that is
      // seq_cst-before our flip must be visible here, or the reader's
      // revalidation load would have seen the flip and withdrawn.
      while (pt.exits[p].load(std::memory_order_seq_cst) !=
             pt.enters[p].load(std::memory_order_seq_cst)) {
        // A thread that died inside its critical section never exits —
        // without this escape the grace period livelocks on the corpse.
        // Route the balancing through the reaper (never balance in place
        // here): reap_dead re-checks ownership under the lock that
        // serializes recycled-tid takeovers, so a just-attached new owner
        // cannot have its counters clobbered by a stale corpse snapshot.
        if ((++spins & 1023u) == 0 && core_.owner_departed(t)) {
          core_.reap_dead(self, [this](int z) { balance_corpse(z); });
          continue;  // certification may need further passes; re-test
        }
        waiter.wait();
      }
    }
  }

  // Balances both phase shards of a departed owner's slot: the corpse can
  // never run its exits, and a frozen enters>exits blocks every future
  // grace period. Called only under the domain reap lock (reap_dead /
  // takeover attach), where the counters cannot move concurrently.
  void balance_corpse(int t) {
    auto& pt = *pt_[t];
    for (int p = 0; p < 2; ++p) {
      pt.exits[p].store(pt.enters[p].load(std::memory_order_relaxed),
                        std::memory_order_release);
    }
  }

  struct PerThread {
    std::atomic<uint64_t> enters[2] = {};
    std::atomic<uint64_t> exits[2] = {};
    uint32_t my_phase = 0;
    bool reclaim_pending = false;
    bool pressure_forced = false;  // owner-thread only
  };

  DomainCore core_;
  // u64: the entry revalidation compares full counter values, so wrap
  // (the parity-ABA at 2^32 flips) is out of reach in practice.
  std::atomic<uint64_t> phase_{0};
  runtime::Padded<PerThread> pt_[runtime::kMaxThreads];
};

}  // namespace pop::smr
