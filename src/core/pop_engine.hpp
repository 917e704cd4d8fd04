// PopEngine — the publish-on-ping machinery shared by HazardPtrPOP,
// HazardEraPOP and EpochPOP (paper §3, Algorithms 1-3, 5), and the
// process's one ping-and-wait handshake: NBR+ rides the same wave (its
// write-phase reservations are the slots, and a thread caught in its read
// phase hands the signal bus a restart target), and HPAsym's fallback
// where sys_membarrier is missing is a zero-slot engine, whose publish is
// just the fence and the counter bump.
//
// Readers record reservations in *private* per-thread slots with plain
// (relaxed-atomic) stores: no fence, no cache-line transfer on the read
// path. When a reclaimer wants to scan, it executes the handshake of
// Algorithm 2:
//
//   collectPublishedCounters();   // snapshot every thread's SWMR counter
//   pingAllToPublish();           // pthread_kill to all attached threads
//   waitForAllPublished();        // spin until every counter advances
//
// Each pinged thread's signal handler copies its private slots to shared
// SWMR slots, issues one seq_cst fence, and increments its publish
// counter. Once every attached thread's counter has advanced past the
// snapshot, all reservations that existed before the ping are visible,
// and the reclaimer may free any retired node not found in the shared
// slots (pointer mode) or whose lifespan intersects no published era (era
// mode). Concurrent reclaimers coalesce twice over: a single publish
// satisfies every waiter whose snapshot predates it, and a global round
// counter lets a reclaimer that observes an in-flight ping wave piggyback
// on that wave's publish storm instead of re-signaling every thread (see
// ping_all_and_wait).
//
// Private slots are lock-free std::atomic<uintptr_t> accessed with relaxed
// ordering — plain machine stores, and the only data shared with the
// (same-thread, asynchronous) signal handler, which makes the handler
// async-signal-safe by [intro.execution]/support.signal rules.
#pragma once

#include <atomic>
#include <chrono>
#include <csetjmp>
#include <cstdint>
#include <cstdio>

#include "obs/obs.hpp"
#include "runtime/backoff.hpp"
#include "runtime/padded.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"
#include "smr/hp_slots.hpp"
#include "smr/smr_config.hpp"

namespace pop::core {

// Outcome of one ping_all_and_wait handshake. `timed_out` means at least
// one *live* laggard never published before the watchdog deadline — the
// caller must NOT sweep against the shared table (the laggard's private
// reservations are invisible); defer and retry on a later pass. Dead
// laggards are certified by the kernel probe and skipped without
// compromising the wave.
struct HandshakeResult {
  int sent = 0;            // signals this caller issued
  int certified_dead = 0;  // laggards whose owner departed, skipped
  bool timed_out = false;  // a live laggard outlasted the deadline
  bool complete() const { return !timed_out; }
};

class PopEngine final : public runtime::SignalClient {
 public:
  // `ping_timeout_ms` is the handshake watchdog's deadline
  // (SmrConfig::ping_timeout_ms; 0 disables it).
  explicit PopEngine(
      int num_slots,
      uint64_t ping_timeout_ms = smr::SmrConfig{}.ping_timeout_ms)
      : num_slots_(num_slots), ping_timeout_ms_(ping_timeout_ms) {}

  ~PopEngine() {
    // Threads must have detached; defensively unhook the signal bus for
    // the calling thread (worker threads detach via domain detach()).
    runtime::SignalBus::instance().detach(this);
  }

  // ---- thread lifecycle --------------------------------------------------

  void attach(int tid) {
    for (int s = 0; s < num_slots_; ++s) {
      local(tid, s).store(0, std::memory_order_relaxed);
      shared_.at(tid, s).store(0, std::memory_order_release);
    }
    // Relaxed atomic: a reclaimer that raced an attach on a recycled tid
    // may read either epoch — it only uses the value for staleness
    // detection against the registry, where both answers are safe.
    pt_[tid]->registry_epoch.store(
        runtime::ThreadRegistry::instance().slot_epoch(tid),
        std::memory_order_relaxed);
    pt_[tid]->restart.store(nullptr, std::memory_order_relaxed);
    // seq_cst: attached must be ordered before the SignalBus registration
    // so a reclaimer whose ping reaches this thread never reads false.
    pt_[tid]->attached.store(true, std::memory_order_seq_cst);
    runtime::SignalBus::instance().attach(this);
  }

  void detach(int tid) {
    for (int s = 0; s < num_slots_; ++s) {
      local(tid, s).store(0, std::memory_order_relaxed);
      shared_.at(tid, s).store(0, std::memory_order_release);
    }
    pt_[tid]->restart.store(nullptr, std::memory_order_relaxed);
    // Unblock any reclaimer currently waiting on this thread.
    pt_[tid]->publish_counter.fetch_add(1, std::memory_order_release);
    pt_[tid]->attached.store(false, std::memory_order_release);
    runtime::SignalBus::instance().detach(this);
  }

  bool attached(int tid) const {
    return pt_[tid]->attached.load(std::memory_order_acquire);
  }

  // ---- reader fast path ----------------------------------------------------

  // Private reservation: a plain store. The paper's read() loop lives in
  // the domain (it also revalidates the source pointer).
  void reserve_local(int tid, int slot, uintptr_t v) {
    local(tid, slot).store(v, std::memory_order_relaxed);
  }

  uintptr_t local_value(int tid, int slot) const {
    return local(tid, slot).load(std::memory_order_relaxed);
  }

  void clear_local(int tid) {
    for (int s = 0; s < num_slots_; ++s) {
      local(tid, s).store(0, std::memory_order_relaxed);
    }
  }

  // NBR+ neutralization: while `env` is armed (the read phase), a ping
  // restarts the thread from it. nullptr disarms (the write phase, or the
  // end of the operation). Owner thread only.
  void arm_restart(int tid, sigjmp_buf* env) {
    pt_[tid]->restart.store(env, std::memory_order_relaxed);
  }
  bool restart_armed(int tid) const {
    return pt_[tid]->restart.load(std::memory_order_relaxed) != nullptr;
  }

  // ---- signal handler (publish) -------------------------------------------

  // Publishes, then hands back an armed restart target (disarmed, so the
  // restarted operation must re-arm). The publish lands before the jump:
  // the handler dereferences nothing, and the restarted traversal drops
  // every pointer it held, so a reclaimer may free as soon as it sees the
  // counter move.
  sigjmp_buf* on_ping(int tid) noexcept override {
    auto& pt = *pt_[tid];
    if (!pt.attached.load(std::memory_order_relaxed)) return nullptr;
    publish(tid);
    pt.pings.fetch_add(1, std::memory_order_relaxed);
    sigjmp_buf* env = pt.restart.load(std::memory_order_relaxed);
    if (env != nullptr) pt.restart.store(nullptr, std::memory_order_relaxed);
    return env;
  }

  // publishReservations() of Algorithm 2; also callable synchronously by
  // the reclaimer on itself.
  void publish(int tid) noexcept {
    for (int s = 0; s < num_slots_; ++s) {
      shared_.at(tid, s).store(local(tid, s).load(std::memory_order_relaxed),
                               std::memory_order_release);
    }
    // seq_cst fence: the slot stores above must be visible before the
    // counter bump — a reclaimer that observes the new counter value must
    // also observe every published reservation.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    pt_[tid]->publish_counter.fetch_add(1, std::memory_order_release);
  }

  // ---- reclaimer handshake --------------------------------------------------

  // Executes collect + ping + wait. Returns the handshake outcome (signal
  // count + watchdog verdict). On a complete() return, every pre-ping
  // reservation of every attached thread is visible in the shared table.
  //
  // Corpses and the watchdog: every escalation probes each laggard's
  // owner. A departed one (exited, or kernel-dead without deregistering)
  // is skipped at once — its private reservations died with it, and its
  // stale shared slots keep conservatively protecting whatever they name
  // until the domain's reaper neutralizes them. The wait also carries a
  // terminal deadline (ping_timeout_ms, 0 disables) layered over the
  // progressive per-wave patience: a live laggard that outlasts it (e.g.
  // one whose pings are being lost) forces timed_out, because freeing
  // without its publish would be unsafe — the caller defers the sweep,
  // which degrades memory bounds, never safety.
  //
  // Concurrent handshakes coalesce on a global round counter (even = no
  // ping wave in flight, odd = a wave is open: a leader has broadcast and
  // is waiting for the publishes to land). Only a leader broadcasts; a
  // reclaimer that observes an open wave piggybacks on that wave's
  // publish storm and makes up any gap — a thread whose publish predates
  // its own counter snapshot, or one the broadcast missed — with targeted
  // per-thread re-pings after a patience interval. Safety never depends
  // on the round logic: the counter wait below is the paper's
  // waitForAllPublished() and is what actually certifies visibility.
  HandshakeResult ping_all_and_wait(int self_tid) {
    HandshakeResult result;
    // Wave round-trip timing: one clock read on entry/exit when either
    // observability channel wants it, nothing otherwise.
    const bool obs_timing = obs::latency_on() || obs::trace_on();
    const uint64_t obs_t0 = obs_timing ? obs::now_ns() : 0;
    publish(self_tid);  // own reservations participate in the scan

    // collectPublishedCounters()
    Waited waited[runtime::kMaxThreads];
    int nwait = 0;
    auto& reg = runtime::ThreadRegistry::instance();
    const int hi = reg.max_tid();
    for (int t = 0; t <= hi; ++t) {
      if (t == self_tid || !attached(t)) continue;
      waited[nwait++] = {
          t, pt_[t]->publish_counter.load(std::memory_order_acquire),
          pt_[t]->registry_epoch.load(std::memory_order_relaxed)};
    }

    // pingAllToPublish(), coalesced: lead a wave only if none is open.
    // Every publish a wave triggers lands after its leader's broadcast,
    // and our snapshot above predates anything we go on to wait for — so
    // joining an open wave is always safe, merely possibly insufficient
    // (covered by the escalation below). The round is PROCESS-WIDE, not
    // per-engine: a ping publishes the reservations of every co-resident
    // domain on the receiving thread (the SignalBus handler notifies all
    // clients), so a reclaimer in one shard's domain can ride a wave led
    // by another's. A joined wave whose leader pinged a different
    // membership may miss some of our threads — the targeted re-ping
    // below covers exactly that gap, so cross-domain coalescing trades a
    // short patience interval for ~Nx fewer signal broadcasts when N
    // domains reclaim concurrently.
    auto& round = global_round();
    bool leading = false;
    uint64_t r = round.load(std::memory_order_acquire);
    while ((r & 1) == 0) {
      if (round.compare_exchange_weak(r, r + 1,
                                      std::memory_order_acq_rel)) {
        // We lead: signal exactly the threads attached to this domain —
        // the set whose publish counters the wait below certifies.
        result.sent = reg.ping_others(
            runtime::kPingSignal, [this](int t) { return attached(t); });
        leading = true;
        break;
      }
    }

    // waitForAllPublished(), round-robin over the remaining threads so
    // one patience interval covers every laggard at once (a per-thread
    // serial wait would pay it once per thread a wave missed). The
    // targeted re-ping is the liveness backstop for threads no broadcast
    // covered — e.g. a joiner whose snapshot predates some publishes.
    bool done[runtime::kMaxThreads] = {};
    int remaining = nwait;
    runtime::SpinThenYield waiter;
    uint32_t stalled_sweeps = 0;
    // Progressive patience: the first re-ping fires fast — a joiner whose
    // snapshot already contained some of the wave's publishes would
    // otherwise stall a full long interval on counters that will never
    // advance again — then backs off exponentially so a genuinely slow
    // thread is not bombarded. The backoff is per-wave state: progress
    // resets to the fast interval, and nothing leaks into the next wave.
    // (An earlier version jumped straight to the long interval on the
    // first escalation and never restored the short one — a joiner
    // stalling twice in one wave paid 16x the intended latency.)
    uint32_t patience = kRepingPatienceFirst;
    // Watchdog: armed lazily at the first escalation (healthy waves never
    // touch the clock), it bounds the total wait.
    bool deadline_armed = false;
    std::chrono::steady_clock::time_point armed_at{};
    while (remaining > 0) {
      bool progress = false;
      for (int i = 0; i < nwait; ++i) {
        if (done[i]) continue;
        const auto& w = waited[i];
        if (pt_[w.tid]->publish_counter.load(std::memory_order_acquire) !=
                w.counter_before ||                       // published
            !attached(w.tid) ||                           // detached: no refs
            reg.slot_epoch(w.tid) != w.registry_epoch) {  // slot recycled
          done[i] = true;
          --remaining;
          progress = true;
        }
      }
      if (remaining == 0) break;
      if (progress) {
        stalled_sweeps = 0;
        patience = kRepingPatienceFirst;
      } else if (++stalled_sweeps > patience) {
        stalled_sweeps = 0;
        patience = patience < kRepingPatienceMax / 2 ? patience * 2
                                                     : kRepingPatienceMax;
        skip_departed(waited, done, nwait, remaining, result);
        if (remaining == 0) break;
        if (!deadline_armed) {
          deadline_armed = true;
          armed_at = std::chrono::steady_clock::now();
        } else if (ping_timeout_ms_ > 0 &&
                   std::chrono::steady_clock::now() - armed_at >=
                       std::chrono::milliseconds(ping_timeout_ms_)) {
          give_up(waited, done, nwait, result);
          break;
        }
        result.sent += reg.ping_others(
            runtime::kPingSignal,
            [&](int t) {
              for (int i = 0; i < nwait; ++i) {
                if (!done[i] && waited[i].tid == t) return attached(t);
              }
              return false;
            });
      }
      waiter.wait();  // yields under oversubscription (§4.1.2)
    }
    if (leading) {
      round.fetch_add(1, std::memory_order_release);  // close the wave
      waves_led_.fetch_add(1, std::memory_order_relaxed);
    } else {
      waves_joined_.fetch_add(1, std::memory_order_relaxed);
    }
    // Refresh our own counter: a joiner that snapshotted us after our
    // entry publish would otherwise have to escalate to unblock.
    publish(self_tid);
    if (obs_timing) {
      const uint64_t dt = obs::now_ns() - obs_t0;
      obs::record_latency(obs::LatOp::kPingWave, dt);
      obs::trace_event(result.timed_out ? obs::TraceKind::kPingWaveTimeout
                       : leading        ? obs::TraceKind::kPingWaveLead
                                        : obs::TraceKind::kPingWaveJoin,
                       obs_t0, dt, static_cast<uint32_t>(result.sent));
    }
    return result;
  }

  // Neutralizes a certified-dead thread's engine state: clears its
  // (stale) reservations, bumps its publish counter so any waiter
  // snapshotting it unblocks, and drops the attach flag so future waves
  // skip it. Only callable once the owner is certified gone (the
  // DomainCore reaper's neutralize hook) — a dead thread never
  // dereferences, so dropping its reservations frees nothing it can
  // still touch.
  void reap(int tid) {
    for (int s = 0; s < num_slots_; ++s) {
      local(tid, s).store(0, std::memory_order_relaxed);
      shared_.at(tid, s).store(0, std::memory_order_release);
    }
    pt_[tid]->restart.store(nullptr, std::memory_order_relaxed);
    pt_[tid]->publish_counter.fetch_add(1, std::memory_order_release);
    pt_[tid]->attached.store(false, std::memory_order_release);
  }

  // ---- shared-table queries (reclaimer side) ---------------------------------

  // Appends every non-zero published value into `out` (sorted); returns n.
  int collect_shared(uintptr_t* out) const {
    return shared_.collect(num_slots_, out);
  }

  uint64_t pings_received(int tid) const {
    return pt_[tid]->pings.load(std::memory_order_relaxed);
  }
  uint64_t publish_count(int tid) const {
    return pt_[tid]->publish_counter.load(std::memory_order_acquire);
  }

  int num_slots() const { return num_slots_; }

  // Completed ping waves (the round parity protocol above) — PROCESS-WIDE
  // across every PopEngine, since the round is shared; exposed for tests
  // asserting that concurrent reclaimers (same domain or co-resident
  // domains) share one wave. Compare deltas, not absolutes.
  static uint64_t handshake_rounds() {
    return global_round().load(std::memory_order_acquire) / 2;
  }

  // This engine's handshake outcomes: waves it broadcast vs waves it rode
  // (another reclaimer's — possibly another domain's — open wave).
  uint64_t waves_led() const {
    return waves_led_.load(std::memory_order_relaxed);
  }
  uint64_t waves_joined() const {
    return waves_joined_.load(std::memory_order_relaxed);
  }

 private:
  // No-progress sweeps before re-pinging the lagging threads directly.
  // The first interval is short (~128 spins + ~128 yields): it is the
  // recovery path for a joiner that can make no progress without a ping.
  // Escalation doubles the interval per re-ping up to the max, so an
  // open wave's publishes (microseconds, plus scheduling) normally land
  // before the next re-ping while a genuinely stuck thread is not
  // signal-bombed.
  static constexpr uint32_t kRepingPatienceFirst = 1u << 8;
  static constexpr uint32_t kRepingPatienceMax = 1u << 12;

  struct Waited {
    int tid;
    uint64_t counter_before;
    uint64_t registry_epoch;
  };

  // Escalation probe: a laggard whose owner departed (exited, or
  // kernel-dead without deregistering) can never publish, and never again
  // dereferences, so the wave skips it. Costs one tgkill(0) per live
  // laggard per escalation. The registry slot is left for a domain's
  // reaper to certify: it adopts the corpse's retire list before the tid
  // can be recycled to a new thread.
  static void skip_departed(const Waited* waited, bool* done, int nwait,
                            int& remaining, HandshakeResult& result) {
    auto& reg = runtime::ThreadRegistry::instance();
    for (int i = 0; i < nwait; ++i) {
      const auto& w = waited[i];
      if (done[i] || !reg.owner_departed(w.tid, w.registry_epoch)) continue;
      done[i] = true;
      --remaining;
      ++result.certified_dead;
    }
  }

  // Deadline expiry: every remaining laggard was just probed alive, so
  // give up on this wave (timed_out) with a one-line diagnostic naming
  // each stuck tid.
  void give_up(const Waited* waited, const bool* done, int nwait,
               HandshakeResult& result) const {
    auto& reg = runtime::ThreadRegistry::instance();
    result.timed_out = true;
    for (int i = 0; i < nwait; ++i) {
      if (done[i]) continue;
      const auto& w = waited[i];
      std::fprintf(stderr,
                   "popsmr: ping wave timed out after %llu ms: tid %d is "
                   "alive but never published (heartbeat=%llu) — deferring "
                   "this sweep\n",
                   static_cast<unsigned long long>(ping_timeout_ms_), w.tid,
                   static_cast<unsigned long long>(reg.heartbeat(w.tid)));
    }
  }

  std::atomic<uintptr_t>& local(int tid, int s) {
    return pt_[tid]->local_slots[s];
  }
  const std::atomic<uintptr_t>& local(int tid, int s) const {
    return pt_[tid]->local_slots[s];
  }

  struct PerThread {
    std::atomic<uintptr_t> local_slots[smr::kMaxSlots] = {};
    std::atomic<uint64_t> publish_counter{0};
    std::atomic<uint64_t> pings{0};
    std::atomic<bool> attached{false};
    // Atomic because a handshake may read it while a new thread attaches
    // on a recycled tid (change-detection only, so relaxed suffices).
    std::atomic<uint64_t> registry_epoch{0};
    // Armed NBR+ restart target; read by this thread's own handler.
    std::atomic<sigjmp_buf*> restart{nullptr};
  };

  // Handshake round, shared by every engine in the process: even = idle,
  // odd = a leader (in some domain) is delivering pings. One cache line
  // touched only on the reclaim path, never by readers.
  static std::atomic<uint64_t>& global_round() {
    static runtime::Padded<std::atomic<uint64_t>> r;
    return *r;
  }

  int num_slots_;
  uint64_t ping_timeout_ms_;
  runtime::Padded<PerThread> pt_[runtime::kMaxThreads];
  smr::SlotTable shared_;
  std::atomic<uint64_t> waves_led_{0};
  std::atomic<uint64_t> waves_joined_{0};
};

}  // namespace pop::core
