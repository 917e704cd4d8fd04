// Internal plumbing for the IKV factory: the adapter template and the
// scheme-name dispatcher. Included only by the per-DS factory .cpp files
// (one translation unit per data structure keeps rebuilds incremental).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "ds/iset.hpp"
#include "smr/all.hpp"

namespace pop::ds::detail {

template <class DsT>
class SetAdapter final : public IKV {
 public:
  template <class... Args>
  explicit SetAdapter(std::string ds_name, Args&&... args)
      : ds_(std::forward<Args>(args)...), ds_name_(std::move(ds_name)) {}

  bool get(uint64_t key, uint64_t* val_out) override {
    return ds_.get(key, val_out);
  }
  PutResult put(uint64_t key, uint64_t val) override {
    return ds_.put(key, val);
  }
  bool remove(uint64_t key) override { return ds_.erase(key); }
  bool insert(uint64_t key) override { return ds_.insert(key, key); }
  void detach_thread() override { ds_.domain().detach(); }

  // One domain bracket per pipeline: ops inside the scope skip their own
  // OpGuard (except under NBR, whose guards never skip — the outer
  // bracket is then just an attach and the batch degenerates to per-op
  // brackets, still correct).
  void batch_begin() override {  // smr-lint: allow(R3) the bracket itself
    ds_.domain().begin_op();
    smr::audit::bracket_enter();
    smr::batch_scope_enter();
  }
  void batch_end() override {  // smr-lint: allow(R3) the bracket itself
    smr::batch_scope_exit();
    smr::audit::bracket_exit();
    ds_.domain().end_op();
  }

  // Safe for every scheme: the bare begin_op/end_op bracket never arms
  // NBR's neutralization (no checkpoint, so its handler only acks), and
  // for the epoch/era schemes the bracket itself is the reservation that
  // makes the stall observable.
  void park_in_operation(const std::atomic<bool>& release) override {
    auto& d = ds_.domain();
    d.begin_op();
    smr::audit::bracket_enter();
    while (!release.load(std::memory_order_acquire)) {
      // Sleep, don't spin: a parked victim must not steal cycles from the
      // workers whose garbage it is pinning (signals still interrupt it).
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    smr::audit::bracket_exit();
    d.end_op();
  }
  // Deliberately leaks the operation bracket: the thread is about to die
  // without running end_op or detach, exactly like a crash inside a
  // critical section. Whatever entry-time reservation the scheme makes
  // (epoch/era announcement, BRC phase entry, NBR attach) stays armed
  // until the zombie reaper certifies the corpse. The audit bracket is
  // deliberately entered and never exited for the same reason — if the
  // dying thread somehow reaches detach, unbalanced_bracket SHOULD fire.
  void abandon_in_operation() override {  // smr-lint: allow(R3) crash fixture
    ds_.domain().begin_op();
    smr::audit::bracket_enter();
  }

  smr::StatsSnapshot smr_stats() const override {
    return const_cast<DsT&>(ds_).domain().stats();
  }
  ResizeStats resize_stats() const override {
    if constexpr (requires { ds_.resize_stats(); }) {
      return ds_.resize_stats();
    } else if constexpr (requires { ds_.bucket_count(); }) {
      // Fixed-bucket table: report the shape, zero resize activity.
      ResizeStats r;
      r.buckets = ds_.bucket_count();
      return r;
    } else {
      return {};
    }
  }
  uint64_t size_slow() const override { return ds_.size_slow(); }
  std::string ds_name() const override { return ds_name_; }
  std::string smr_name() const override {
    return std::decay_t<decltype(std::declval<DsT&>().domain())>::kName;
  }

 private:
  DsT ds_;
  std::string ds_name_;
};

// Calls maker.template make<Scheme>() for the scheme named `name`;
// reports an unknown name on stderr (and returns nullptr) so a typo'd
// benchmark flag or config fails loudly instead of as a bare null.
template <class Maker>
std::unique_ptr<IKV> dispatch_smr(const std::string& name, Maker&& maker) {
  std::unique_ptr<IKV> kv;
  if (smr::AllDomains::visit(
          name, [&]<class D>() { kv = maker.template make<D>(); })) {
    return kv;
  }
  std::string known;
  for (const auto& n : all_smr_names()) {
    known += (known.empty() ? "" : ", ") + n;
  }
  std::fprintf(stderr, "popsmr: unknown SMR scheme '%s' (known: %s)\n",
               name.c_str(), known.c_str());
  return nullptr;
}

}  // namespace pop::ds::detail
