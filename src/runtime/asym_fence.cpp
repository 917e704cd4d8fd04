#include "runtime/asym_fence.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

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

}  // namespace

AsymFence& AsymFence::instance() {
  static AsymFence f;
  return f;
}

AsymFence::AsymFence()
    : backend_(probe_membarrier() ? AsymBackend::kMembarrier
                                  : AsymBackend::kSignalBroadcast) {}

void AsymFence::heavy_fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (backend_ == AsymBackend::kMembarrier) {
    membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED);
  }
}

}  // namespace pop::runtime
