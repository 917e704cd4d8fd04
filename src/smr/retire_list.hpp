// Intrusive per-thread retire list. Single-owner: only the owning thread
// pushes and scans, so no synchronization is needed.
//
// The list also keeps the oldest retire_era it holds. A pass that can
// free only nodes retired before some era (EBR's minimum announced epoch)
// and whose list holds nothing that old skips the walk: while a parked
// reader pins the oldest node, such a pass costs O(1) instead of
// O(length). Every update below keeps the bound exact; the skip needs
// only that it never sits above the true minimum, which would strand
// freeable nodes.
#pragma once

#include <cassert>
#include <cstdint>

#include "runtime/pool_alloc.hpp"
#include "smr/reclaimable.hpp"

namespace pop::smr {

class RetireList {
 public:
  // Era floor meaning "the caller knows no floor": every retire era is
  // below it, so it never skips a non-empty list.
  static constexpr uint64_t kNoEraFloor = UINT64_MAX;

  void push(Reclaimable* n) noexcept {
    assert(n->retire_era < kNoEraFloor);
    n->rl_next = head_;
    head_ = n;
    ++len_;
    if (n->retire_era < min_era_) min_era_ = n->retire_era;
  }

  uint64_t length() const noexcept { return len_; }
  bool empty() const noexcept { return head_ == nullptr; }
  // Oldest retire_era held; kNoEraFloor when empty.
  uint64_t min_era() const noexcept { return min_era_; }

  // Destroys freeable nodes (running non-trivial destructors via
  // batch_prep) and chains their memory into `batch` instead of freeing
  // one block at a time — the batch splices whole groups back to their
  // owning heaps with one CAS per (heap, class). Trivially destructible
  // nodes (batch_prep_identity) skip the per-node indirect call entirely;
  // nodes outside the pool allocator (no batch hook) fall back to their
  // deleter. Keeps the rest and returns the number freed.
  //
  // `era_floor` is the caller's promise that `can_free` is false for every
  // node whose retire_era is at or above it. When the whole list is that
  // young the pass returns 0 without calling `can_free` at all.
  template <class Pred>
  uint64_t sweep_batch(Pred&& can_free,
                       runtime::PoolAllocator::FreeBatch& batch,
                       uint64_t era_floor = kNoEraFloor) noexcept {
    if (min_era_ >= era_floor) return 0;
    Reclaimable* kept_head = nullptr;
    uint64_t kept = 0;
    uint64_t kept_min = kNoEraFloor;
    uint64_t freed = 0;
    Reclaimable* cur = head_;
    while (cur != nullptr) {
      Reclaimable* next = cur->rl_next;
      if (can_free(cur)) {
        if (cur->batch_prep == &batch_prep_identity) {
          batch.add(cur);
        } else if (cur->batch_prep != nullptr) {
          batch.add(cur->batch_prep(cur));
        } else {
          cur->deleter(cur);
        }
        ++freed;
      } else {
        cur->rl_next = kept_head;
        kept_head = cur;
        ++kept;
        if (cur->retire_era < kept_min) kept_min = cur->retire_era;
      }
      cur = next;
    }
    head_ = kept_head;
    len_ = kept;
    min_era_ = kept_min;
    return freed;
  }

  // Frees everything unconditionally (domain teardown), batched.
  uint64_t drain() noexcept {
    runtime::PoolAllocator::FreeBatch batch;
    return sweep_batch([](Reclaimable*) { return true; }, batch);
  }

  // Splices `other`'s entire chain into this list, leaving `other` empty;
  // returns the number of nodes adopted. Used by the zombie reaper: a
  // dead thread's orphaned retire list moves wholesale into a surviving
  // thread's list so its backlog rejoins normal sweeps. The caller must
  // guarantee nobody else is touching either list (single-owner rule —
  // the reaper holds the domain reap lock and the old owner is dead).
  uint64_t adopt(RetireList& other) noexcept {
    Reclaimable* stolen = other.head_;
    if (stolen == nullptr) return 0;
    const uint64_t n = other.len_;
    Reclaimable* tail = stolen;
    while (tail->rl_next != nullptr) tail = tail->rl_next;
    tail->rl_next = head_;
    head_ = stolen;
    len_ += n;
    if (other.min_era_ < min_era_) min_era_ = other.min_era_;
    other.head_ = nullptr;
    other.len_ = 0;
    other.min_era_ = kNoEraFloor;
    return n;
  }

 private:
  Reclaimable* head_ = nullptr;
  uint64_t len_ = 0;
  uint64_t min_era_ = kNoEraFloor;
};

}  // namespace pop::smr
