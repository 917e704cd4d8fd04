#include "runtime/signal_bus.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "runtime/thread_registry.hpp"

namespace pop::runtime {

namespace {

// One client per (domain, thread), and a ShardedMap gives each shard its
// own domain: the bench flags accept up to 4096 shards. The table costs
// 32 KB of zeroed TLS per thread but no time: only the prefix a thread
// has used is ever walked.
constexpr int kMaxClientsPerThread = 4096;

struct ClientTable {
  // Slots are published with release stores so the handler (same thread,
  // but asynchronous) observes fully-constructed entries. std::atomic of a
  // pointer is lock-free and therefore async-signal-safe.
  std::atomic<SignalClient*> slots[kMaxClientsPerThread] = {};
  // Slots [0, used) have held a client at some point; detach leaves a
  // hole that the next attach fills.
  std::atomic<int> used{0};
  // Detach-in-flight marker, closing the delivery/detach race: detach()
  // publishes the client here *before* touching the slot array, and the
  // handler completes any marked detach at entry (nulling the slot on the
  // interrupted code's behalf) before it walks a single client. Without
  // this, a handler that interrupts detach() mid-walk and then leaves by
  // an NBR+ restart jump abandons the detach frame with the stale pointer
  // still in the table — the next ping would call on_ping through a
  // client that may since have been destroyed.
  std::atomic<SignalClient*> pending_detach{nullptr};
};

thread_local ClientTable t_clients;

// Two flags close the install race: `g_handler_claim` elects the single
// installing thread; `g_handler_installed` flips only after sigaction
// returned. A thread that loses the claim must WAIT for the flip —
// otherwise it can attach, retire, and ping the still-installing thread
// while SIGUSR1 has the default (terminate) disposition.
std::atomic<bool> g_handler_claim{false};
std::atomic<bool> g_handler_installed{false};

}  // namespace

SignalBus& SignalBus::instance() {
  static SignalBus bus;
  return bus;
}

void SignalBus::handler(int) {
  // errno must be preserved: the interrupted code may be between a syscall
  // and its errno check.
  const int saved_errno = errno;
  // A still-pending ping can be delivered while this thread is exiting,
  // *after* it deregistered (thread_local destructor order is
  // unspecified). Registering from a signal handler would deadlock on
  // the registry lock the sender may hold and write to a destroyed
  // thread_local — so consult the cached id only and bail out when the
  // thread is no longer (or not yet) registered: an unregistered thread
  // has nothing to publish and no reclaimer waits on it.
  const int tid = ThreadRegistry::detail_cached_tid();
  if (tid < 0) {
    errno = saved_errno;
    return;
  }
  // Liveness evidence for the zombie reaper: every delivery advances the
  // receiving thread's registry heartbeat (lock-free atomic increment,
  // async-signal-safe).
  ThreadRegistry::instance().heartbeat_bump(tid);
  // Complete any detach this delivery interrupted BEFORE running clients:
  // the restart jump below never returns control to the interrupted
  // detach() frame, so this is the only point guaranteed to finish the
  // removal.
  const int used = t_clients.used.load(std::memory_order_acquire);
  SignalClient* pending =
      t_clients.pending_detach.load(std::memory_order_acquire);
  if (pending != nullptr) {
    for (int i = 0; i < used; ++i) {
      auto& slot = t_clients.slots[i];
      if (slot.load(std::memory_order_relaxed) == pending) {
        slot.store(nullptr, std::memory_order_release);
      }
    }
    t_clients.pending_detach.store(nullptr, std::memory_order_release);
  }
  // Every client runs before any jump: each publishes for its own
  // reclaimers, whichever of them armed a restart.
  sigjmp_buf* restart = nullptr;
  for (int i = 0; i < used; ++i) {
    SignalClient* c = t_clients.slots[i].load(std::memory_order_acquire);
    if (c == nullptr) continue;
    sigjmp_buf* to = c->on_ping(tid);
    if (restart == nullptr) restart = to;
  }
  errno = saved_errno;
  if (restart != nullptr) {
    // sigsetjmp saved no mask (savemask=0): re-enable the ping signal,
    // then jump back to the checkpoint.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, kPingSignal);
    sigprocmask(SIG_UNBLOCK, &set, nullptr);
    siglongjmp(*restart, 1);
  }
}

void SignalBus::attach(SignalClient* c) {
  // A client is only reachable if the thread is registered: broadcasts
  // iterate the registry.
  (void)ThreadRegistry::instance().my_tid();
  if (!g_handler_claim.exchange(true, std::memory_order_acq_rel)) {
    struct sigaction sa = {};
    sa.sa_handler = &SignalBus::handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (sigaction(kPingSignal, &sa, nullptr) != 0) {
      std::perror("popsmr: sigaction");
      std::abort();
    }
    g_handler_installed.store(true, std::memory_order_release);
  } else {
    while (!g_handler_installed.load(std::memory_order_acquire)) {
      // One-time, few-instruction window; spinning is fine.
    }
  }
  const int used = t_clients.used.load(std::memory_order_relaxed);
  int free_slot = used;
  for (int i = 0; i < used; ++i) {
    SignalClient* s = t_clients.slots[i].load(std::memory_order_relaxed);
    if (s == c) return;  // already attached
    if (s == nullptr && free_slot == used) free_slot = i;
  }
  if (free_slot == kMaxClientsPerThread) {
    std::fprintf(stderr, "popsmr: >%d signal clients on one thread\n",
                 kMaxClientsPerThread);
    std::abort();
  }
  t_clients.slots[free_slot].store(c, std::memory_order_release);
  if (free_slot == used) {
    t_clients.used.store(used + 1, std::memory_order_release);
  }
}

void SignalBus::detach(SignalClient* c) {
  // Publish intent first: from here on, a delivery that interrupts this
  // frame finishes the removal itself (see handler), so even a
  // siglongjmp-abandoned detach leaves the table clean.
  t_clients.pending_detach.store(c, std::memory_order_release);
  const int used = t_clients.used.load(std::memory_order_relaxed);
  for (int i = 0; i < used; ++i) {
    auto& slot = t_clients.slots[i];
    if (slot.load(std::memory_order_relaxed) == c) {
      slot.store(nullptr, std::memory_order_release);
      break;
    }
  }
  // CAS, not a plain clear: if a handler already completed this detach it
  // also cleared the marker, and a plain store could wipe a *newer*
  // marker in exotic nestings. Failure means the work is already done.
  SignalClient* expected = c;
  t_clients.pending_detach.compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel,
      std::memory_order_relaxed);
}

bool SignalBus::attached(SignalClient* c) const {
  const int used = t_clients.used.load(std::memory_order_relaxed);
  for (int i = 0; i < used; ++i) {
    if (t_clients.slots[i].load(std::memory_order_relaxed) == c) return true;
  }
  return false;
}

}  // namespace pop::runtime
