// The SMR contract sanitizer (smr/audit.hpp), exercised both ways:
// seeded violations must trip the right detector, and clean runs across
// every scheme must stay silent. The disabled-path gate's cost is bounded
// in tests/obs/test_obs_overhead.cpp, beside the observability hooks.
//
// Seeding notes:
//  - double retire is seeded under ABORT mode via death tests: the audit
//    fires inside retire_push BEFORE the node is pushed, so the child
//    process dies before the intrusive retire list can self-link. Warn
//    mode would let the corrupting push proceed — deliberately not
//    tested that way.
//  - retire-outside-bracket and unbalanced-bracket are benign to the
//    heap, so warn mode + counters cover them (and keep this process
//    alive across schemes).
//  - the bracket-leak seed runs in its own std::thread so the leaked
//    thread-local batch scope dies with the thread instead of making
//    later tests skip their OpGuards.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "ds/iset.hpp"
#include "smr/all.hpp"

namespace pop::smr {
namespace {

struct TNode : Reclaimable {
  explicit TNode(uint64_t k = 0) : key(k) {}
  uint64_t key;
};

SmrConfig tiny() {
  SmrConfig c;
  c.retire_threshold = 2;
  c.epoch_freq = 1;
  return c;
}

// Warn mode so the process survives the seeded violation and the test
// can read the counters. Callers pair with audit_off().
void audit_warn_mode() {
  audit::set_enabled(true);
  audit::set_abort_on_violation(false);
  audit::reset();
}

void audit_off() {
  audit::set_enabled(false);
  audit::reset();
}

template <class D>
void seed_double_retire() {
  audit::set_enabled(true);
  audit::set_abort_on_violation(true);
  D d(tiny());
  TNode* n = d.template create<TNode>(7);
  typename D::Guard g(d);
  d.retire(n);
  d.retire(n);  // aborts here, before the retire list can self-link
}

TEST(AuditSeededDeath, DoubleRetireAbortsWithSchemeTag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(seed_double_retire<EbrDomain>(), "double_retire.*EBR");
  EXPECT_DEATH(seed_double_retire<core::EpochPopDomain>(),
               "double_retire.*EpochPOP");
  EXPECT_DEATH(seed_double_retire<HpDomain>(), "double_retire.*HP");
}

template <class D>
void seed_retire_outside_bracket() {
  D d(tiny());
  d.attach();
  TNode* n = d.template create<TNode>(1);
  d.retire(n);  // no OpGuard, no batch bracket: contract violation
  d.detach();
}

TEST(AuditSeeded, RetireOutsideBracketCountsPerScheme) {
  audit_warn_mode();
  seed_retire_outside_bracket<EbrDomain>();
  EXPECT_EQ(audit::violations(audit::Violation::kRetireOutsideOp), 1u);
  seed_retire_outside_bracket<core::EpochPopDomain>();
  EXPECT_EQ(audit::violations(audit::Violation::kRetireOutsideOp), 2u);
  seed_retire_outside_bracket<HpDomain>();
  EXPECT_EQ(audit::violations(audit::Violation::kRetireOutsideOp), 3u);
  EXPECT_EQ(audit::violations(audit::Violation::kDoubleRetire), 0u);
  audit_off();
}

// A batch bracket opened and never closed must be caught when the thread
// detaches. Runs through the public IKV surface (batch_begin with no
// batch_end), in a throwaway thread so the leaked thread-local batch
// scope cannot leak into later tests on this thread.
void seed_unbalanced_batch(const std::string& smr_name) {
  ds::SetConfig cfg;
  cfg.capacity = 64;
  auto m = ds::make_kv("HML", smr_name, cfg);
  ASSERT_NE(m, nullptr) << smr_name;
  std::thread t([&] {
    m->batch_begin();
    m->put(1, 10);
    m->detach_thread();  // bracket still open: unbalanced_bracket fires
  });
  t.join();
}

TEST(AuditSeeded, UnbalancedBatchBracketAtDetach) {
  audit_warn_mode();
  uint64_t expected = 0;
  for (const char* smr_name : {"EBR", "EpochPOP", "HP"}) {
    seed_unbalanced_batch(smr_name);
    ++expected;
    EXPECT_EQ(audit::violations(audit::Violation::kUnbalancedBracket),
              expected)
        << smr_name;
  }
  EXPECT_EQ(audit::violations(), expected) << "only unbalanced_bracket";
  audit_off();
}

// With the auditor armed, a well-behaved workload over every scheme and
// both bracket styles (per-op OpGuards and a pipelined batch) must stay
// completely silent.
TEST(AuditClean, AllSchemesSilentUnderAudit) {
  audit_warn_mode();
  for (const auto& smr_name : ds::all_smr_names()) {
    ds::SetConfig cfg;
    cfg.capacity = 128;
    auto m = ds::make_kv("HML", smr_name, cfg);
    ASSERT_NE(m, nullptr) << smr_name;
    for (uint64_t k = 0; k < 64; ++k) m->put(k, k * 10);
    m->batch_begin();
    for (uint64_t k = 0; k < 64; ++k) {
      uint64_t v = 0;
      EXPECT_TRUE(m->get(k, &v)) << smr_name;
      m->put(k, v + 1);
    }
    m->batch_end();
    for (uint64_t k = 0; k < 64; ++k) m->remove(k);
    m->detach_thread();
    EXPECT_EQ(audit::violations(), 0u) << smr_name;
  }
  EXPECT_EQ(audit::bracket_depth(), 0u);
  audit_off();
}

}  // namespace
}  // namespace pop::smr
