#include "smr/retire_list.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "runtime/pool_alloc.hpp"

namespace pop::smr {
namespace {

struct TestNode : Reclaimable {
  static int live;
  TestNode() { ++live; }
};
int TestNode::live = 0;

void test_deleter(Reclaimable* r) {
  --TestNode::live;
  delete static_cast<TestNode*>(r);
}

TestNode* make_node(uint64_t retire_era = 0) {
  auto* n = new TestNode();
  n->deleter = &test_deleter;
  n->retire_era = retire_era;
  return n;
}

TEST(RetireList, StartsEmpty) {
  RetireList rl;
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(rl.length(), 0u);
}

TEST(RetireList, PushIncreasesLength) {
  RetireList rl;
  rl.push(make_node());
  rl.push(make_node());
  EXPECT_EQ(rl.length(), 2u);
  EXPECT_FALSE(rl.empty());
  rl.drain();
  EXPECT_EQ(TestNode::live, 0);
}

// Nodes outside the pool allocator (no batch hook) go through their
// deleter, so these run the one sweep path with test-owned nodes.
template <class Pred>
uint64_t sweep(RetireList& rl, Pred&& can_free,
               uint64_t era_floor = RetireList::kNoEraFloor) {
  runtime::PoolAllocator::FreeBatch batch;
  return rl.sweep_batch(std::forward<Pred>(can_free), batch, era_floor);
}

TEST(RetireList, SweepFreesOnlyMatching) {
  RetireList rl;
  for (uint64_t e = 0; e < 10; ++e) rl.push(make_node(e));
  const uint64_t freed =
      sweep(rl, [](Reclaimable* n) { return n->retire_era < 5; });
  EXPECT_EQ(freed, 5u);
  EXPECT_EQ(rl.length(), 5u);
  EXPECT_EQ(TestNode::live, 5);
  rl.drain();
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, SweepKeepsSurvivorsForLaterSweep) {
  RetireList rl;
  for (uint64_t e = 0; e < 6; ++e) rl.push(make_node(e));
  sweep(rl, [](Reclaimable* n) { return n->retire_era % 2 == 0; });
  EXPECT_EQ(rl.length(), 3u);
  const uint64_t freed = sweep(rl, [](Reclaimable*) { return true; });
  EXPECT_EQ(freed, 3u);
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, DrainFreesEverything) {
  RetireList rl;
  for (int i = 0; i < 100; ++i) rl.push(make_node());
  EXPECT_EQ(rl.drain(), 100u);
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(TestNode::live, 0);
}

TEST(RetireList, SweepOnEmptyListIsNoop) {
  RetireList rl;
  EXPECT_EQ(sweep(rl, [](Reclaimable*) { return true; }), 0u);
}

// ---- the oldest-retire-era bound --------------------------------------------

TEST(RetireList, MinEraFollowsPushSweepAdoptAndDrain) {
  RetireList rl;
  EXPECT_EQ(rl.min_era(), RetireList::kNoEraFloor);
  rl.push(make_node(7));
  EXPECT_EQ(rl.min_era(), 7u);
  rl.push(make_node(9));  // a younger node does not raise it
  EXPECT_EQ(rl.min_era(), 7u);
  rl.push(make_node(4));
  EXPECT_EQ(rl.min_era(), 4u);
  for (uint64_t e = 10; e < 14; ++e) rl.push(make_node(e));

  // A partial sweep recomputes the bound over the kept nodes only.
  EXPECT_EQ(sweep(rl, [](Reclaimable* n) { return n->retire_era < 10; }), 3u);
  EXPECT_EQ(rl.length(), 4u);
  EXPECT_EQ(rl.min_era(), 10u);

  // Adopting an older list lowers it; the donor is left empty and reset.
  RetireList corpse;
  corpse.push(make_node(3));
  corpse.push(make_node(20));
  EXPECT_EQ(rl.adopt(corpse), 2u);
  EXPECT_EQ(rl.min_era(), 3u);
  EXPECT_EQ(corpse.min_era(), RetireList::kNoEraFloor);

  // Adopting a younger list leaves it.
  RetireList young;
  young.push(make_node(50));
  rl.adopt(young);
  EXPECT_EQ(rl.min_era(), 3u);

  EXPECT_EQ(rl.drain(), 7u);
  EXPECT_EQ(rl.min_era(), RetireList::kNoEraFloor);
  EXPECT_EQ(TestNode::live, 0);

  // A sweep that frees everything resets it as drain does.
  rl.push(make_node(5));
  sweep(rl, [](Reclaimable*) { return true; });
  EXPECT_EQ(rl.min_era(), RetireList::kNoEraFloor);
}

TEST(RetireList, PinnedPassNeverCallsThePredicate) {
  RetireList rl;
  for (uint64_t e = 5; e < 105; ++e) rl.push(make_node(e));
  int calls = 0;
  auto counting = [&](Reclaimable* n) {
    ++calls;
    return n->retire_era < 5;
  };
  // The oldest node was retired at the floor: nothing can be freed, and
  // the pass does not look.
  EXPECT_EQ(sweep(rl, counting, /*era_floor=*/5), 0u);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(rl.length(), 100u);

  // One era later the oldest node is freeable: the pass walks the list.
  auto below6 = [&](Reclaimable* n) {
    ++calls;
    return n->retire_era < 6;
  };
  EXPECT_EQ(sweep(rl, below6, /*era_floor=*/6), 1u);
  EXPECT_EQ(calls, 100);
  EXPECT_EQ(rl.min_era(), 6u);
  rl.drain();
  EXPECT_EQ(TestNode::live, 0);
}

// ---- batched sweep --------------------------------------------------------

// Pool-backed node mirroring what DomainCore::create_node produces for a
// trivially destructible type: the identity hook, no per-node dispatch.
struct PoolNode : Reclaimable {
  uint64_t payload = 0;
};

PoolNode* make_pool_node(uint64_t retire_era) {
  auto* n = runtime::PoolAllocator::instance().create<PoolNode>();
  n->retire_era = retire_era;
  n->deleter = [](Reclaimable* r) {
    runtime::PoolAllocator::instance().destroy(static_cast<PoolNode*>(r));
  };
  n->batch_prep = &batch_prep_identity;
  return n;
}

TEST(RetireList, SweepBatchFreesOnlyMatchingAndKeepsRest) {
  RetireList rl;
  for (uint64_t e = 0; e < 10; ++e) rl.push(make_pool_node(e));
  const auto before = runtime::PoolAllocator::instance().stats();
  {
    runtime::PoolAllocator::FreeBatch batch;
    const uint64_t freed = rl.sweep_batch(
        [](Reclaimable* n) { return n->retire_era < 4; }, batch);
    EXPECT_EQ(freed, 4u);
  }
  EXPECT_EQ(rl.length(), 6u);
  const auto mid = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(mid.freed_blocks - before.freed_blocks, 4u);
  EXPECT_EQ(rl.drain(), 6u);
  const auto after = runtime::PoolAllocator::instance().stats();
  EXPECT_EQ(after.freed_blocks - before.freed_blocks, 10u);
  EXPECT_TRUE(rl.empty());
}

TEST(RetireList, SweepBatchRunsNonTrivialDestructors) {
  static int dtors;
  dtors = 0;
  struct DtorNode : Reclaimable {
    ~DtorNode() { ++dtors; }
  };
  RetireList rl;
  for (int i = 0; i < 8; ++i) {
    auto* n = runtime::PoolAllocator::instance().create<DtorNode>();
    n->deleter = [](Reclaimable* r) {
      runtime::PoolAllocator::instance().destroy(static_cast<DtorNode*>(r));
    };
    // What DomainCore stamps for a non-trivially-destructible type:
    // destroy in place, hand the block to the batch.
    n->batch_prep = [](Reclaimable* r) noexcept -> void* {
      auto* p = static_cast<DtorNode*>(r);
      p->~DtorNode();
      return p;
    };
    rl.push(n);
  }
  {
    runtime::PoolAllocator::FreeBatch batch;
    EXPECT_EQ(rl.sweep_batch([](Reclaimable*) { return true; }, batch), 8u);
  }
  EXPECT_EQ(dtors, 8);
}

TEST(RetireList, SweepBatchFallsBackToDeleterWithoutHook) {
  // Nodes outside the pool allocator (batch_prep == nullptr) must still be
  // freed through their per-node deleter on the batched path.
  RetireList rl;
  for (int i = 0; i < 5; ++i) rl.push(make_node());
  EXPECT_EQ(TestNode::live, 5);
  {
    runtime::PoolAllocator::FreeBatch batch;
    EXPECT_EQ(rl.sweep_batch([](Reclaimable*) { return true; }, batch), 5u);
    EXPECT_EQ(batch.blocks_added(), 0u);  // nothing entered the pool batch
  }
  EXPECT_EQ(TestNode::live, 0);
}

}  // namespace
}  // namespace pop::smr
