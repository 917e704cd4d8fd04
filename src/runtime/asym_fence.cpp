#include "runtime/asym_fence.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "runtime/backoff.hpp"
#include "runtime/signal_bus.hpp"
#include "runtime/thread_registry.hpp"

#ifndef MEMBARRIER_CMD_QUERY
#define MEMBARRIER_CMD_QUERY 0
#endif
#ifndef MEMBARRIER_CMD_PRIVATE_EXPEDITED
#define MEMBARRIER_CMD_PRIVATE_EXPEDITED (1 << 3)
#endif
#ifndef MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED
#define MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED (1 << 4)
#endif

namespace pop::runtime {

namespace {

long membarrier(int cmd) {
#ifdef __NR_membarrier
  return syscall(__NR_membarrier, cmd, 0, 0);
#else
  (void)cmd;
  errno = ENOSYS;
  return -1;
#endif
}

bool probe_membarrier() {
  const long cmds = membarrier(MEMBARRIER_CMD_QUERY);
  if (cmds < 0) return false;
  if ((cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0) return false;
  if (membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) != 0) return false;
  return true;
}

// Signal-broadcast fallback: ping every *enrolled* thread; each handler
// issues a full fence and bumps an ack counter the barrier waits on.
// Only threads that enrolled (HPAsym attach) can hold the reservations a
// heavy fence must make visible, so only they are signalled.
class BarrierClient final : public SignalClient {
 public:
  void on_ping(int tid) noexcept override {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    acks_[tid]->fetch_add(1, std::memory_order_release);
  }

  uint64_t ack(int tid) const {
    return acks_[tid]->load(std::memory_order_acquire);
  }

  void enroll(int tid) {
    enrolled_[tid]->store(true, std::memory_order_release);
  }
  bool enrolled(int tid) const {
    return enrolled_[tid]->load(std::memory_order_acquire);
  }

 private:
  Padded<std::atomic<uint64_t>> acks_[kMaxThreads];
  Padded<std::atomic<bool>> enrolled_[kMaxThreads];
};

BarrierClient& barrier_client() {
  static BarrierClient c;
  return c;
}

void signal_broadcast_fence() {
  auto& reg = ThreadRegistry::instance();
  auto& client = barrier_client();
  // Every live thread must be attached to the bus for this to reach it;
  // SMR domains attach threads on their first operation, and the barrier
  // client is attached alongside (see smr::Asymmetric::attach). Threads
  // never attached cannot hold hazard pointers, so missing them is safe.
  struct Pending {
    int tid;
    uint64_t ack_before;
    uint64_t epoch;
  };
  Pending pending[kMaxThreads];
  int n = 0;
  reg.ping_others(
      kPingSignal, [&](int tid) { return client.enrolled(tid); },
      [&](int tid, uint64_t epoch) {
        pending[n++] = {tid, client.ack(tid), epoch};
      });
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (int i = 0; i < n; ++i) {
    const auto& p = pending[i];
    SpinThenYield waiter;
    while (client.ack(p.tid) == p.ack_before && reg.alive(p.tid) &&
           reg.slot_epoch(p.tid) == p.epoch) {
      waiter.wait();
    }
  }
}

}  // namespace

AsymFence& AsymFence::instance() {
  static AsymFence f;
  return f;
}

AsymFence::AsymFence()
    : backend_(probe_membarrier() ? AsymBackend::kMembarrier
                                  : AsymBackend::kSignalBroadcast) {}

void AsymFence::heavy_fence() {
  if (backend_ == AsymBackend::kMembarrier) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED);
  } else {
    SignalBus::instance().attach(&barrier_client());
    signal_broadcast_fence();
  }
}

// Exposed so HPAsym can attach worker threads to the fallback barrier
// client when the membarrier syscall is unavailable.
namespace detail {
void attach_barrier_client_for_current_thread() {
  if (AsymFence::instance().backend() == AsymBackend::kSignalBroadcast) {
    SignalBus::instance().attach(&barrier_client());
    barrier_client().enroll(ThreadRegistry::instance().my_tid());
  }
}
}  // namespace detail

}  // namespace pop::runtime
