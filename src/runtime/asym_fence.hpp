// Asymmetric memory barrier: a near-free reader-side "light" fence paired
// with an expensive reclaimer-side "heavy" fence that forces every thread's
// prior stores visible and its prior loads complete.
//
// This is the substrate for HPAsym (the Folly-style hazard pointer
// baseline the paper compares against, §2.1/§5). Readers publish a hazard
// pointer with a plain store + compiler barrier; reclaimers run
// heavy_fence() before scanning so that either the reader's store is
// visible or the reader's validation load will observe the unlink.
//
// Backend selection, probed once at startup:
//  1. membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)   - Linux >= 4.14
//  2. kSignalBroadcast                                - container fallback
// There is no process-wide heavy fence without the syscall. On the
// fallback backend each HPAsym domain runs a ping wave instead: a
// zero-slot PopEngine (smr::Asymmetric), whose handler is one seq_cst
// fence plus a counter bump, so the one ping-and-wait loop serves it too.
#pragma once

#include <atomic>

namespace pop::runtime {

enum class AsymBackend { kMembarrier, kSignalBroadcast };

class AsymFence {
 public:
  static AsymFence& instance();

  // Reader side: compiler-only barrier. On TSO the paired heavy fence
  // supplies the StoreLoad ordering.
  static void light_fence() noexcept {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }

  // Reclaimer side: process-wide barrier over all threads
  // (sys_membarrier). On kSignalBroadcast it is only a local seq_cst
  // fence, and the caller runs its own ping wave.
  void heavy_fence();

  AsymBackend backend() const noexcept { return backend_; }

  AsymFence(const AsymFence&) = delete;
  AsymFence& operator=(const AsymFence&) = delete;

 private:
  AsymFence();
  AsymBackend backend_;
};

}  // namespace pop::runtime
