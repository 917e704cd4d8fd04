// Signal bus: one process-wide SIGUSR1 handler multiplexed across SMR
// domains.
//
// A thread may simultaneously participate in several SMR domains (e.g. two
// data structures with different reclaimers in one test). A ping carries no
// sender identity, so the handler conservatively notifies *every* client
// the receiving thread is attached to; publishing reservations for an
// uninvolved domain is harmless and satisfies any concurrent reclaimer.
//
// Handler-side work must be async-signal-safe: clients may only touch
// lock-free atomics and issue fences. A client never jumps itself: NBR+
// neutralization hands its restart target back to the bus, which takes
// the jump only after every client ran — a jump out of the first client
// would leave the others' reclaimers waiting on a publish that never
// comes. The per-thread client table is only mutated by its own thread;
// handler interleavings are made safe by publishing entries with release
// stores and nulling on detach.
#pragma once

#include <csetjmp>
#include <csignal>

namespace pop::runtime {

inline constexpr int kPingSignal = SIGUSR1;

// Interface a reclamation domain implements to receive pings.
class SignalClient {
 public:
  // Runs in signal-handler context on the pinged thread (tid is its id).
  // Returns the checkpoint the thread must restart from (NBR+: a thread
  // caught in its read phase), or nullptr to resume where the signal
  // landed. The bus jumps after all clients ran; if several return a
  // target, it takes the first.
  virtual sigjmp_buf* on_ping(int tid) noexcept = 0;

 protected:
  ~SignalClient() = default;
};

class SignalBus {
 public:
  static SignalBus& instance();

  // Attach `c` for the calling thread. Installs the process signal handler
  // on first use. A client must detach from every thread that attached it
  // before it is destroyed.
  void attach(SignalClient* c);

  // Detach `c` for the calling thread (no-op if not attached).
  void detach(SignalClient* c);

  // True if `c` is attached for the calling thread.
  bool attached(SignalClient* c) const;

  SignalBus(const SignalBus&) = delete;
  SignalBus& operator=(const SignalBus&) = delete;

 private:
  SignalBus() = default;
  static void handler(int);
};

}  // namespace pop::runtime
