// End-to-end runs of one-phase workloads through the scenario engine:
// short timed cells across representative configurations, checking the
// metrics the figure presets are built from (throughput > 0, retire-list
// bounds, signal counts), plus the bench knob readers.
#include <gtest/gtest.h>

#include <cstdlib>

#include "../../bench/driver.hpp"
#include "ds/iset.hpp"
#include "workload/scenario_engine.hpp"

namespace pop::workload {
namespace {

// One 60 ms phase over 256 keys with a 32-node retire threshold.
ScenarioSpec base(const std::string& ds, const std::string& smr,
                  uint32_t ins = 25, uint32_t ers = 25) {
  ScenarioSpec s;
  s.ds = ds;
  s.smr = smr;
  s.threads = 2;
  s.key_range = 256;
  s.smr_cfg.retire_threshold = 32;
  PhaseSpec p;
  p.duration_ms = 60;
  p.pct_insert = ins;
  p.pct_erase = ers;
  s.phases.push_back(p);
  return s;
}

// Figure-4 mode: half the workers read the full range, half update
// [0, writer_key_range).
ScenarioSpec split(const std::string& smr, int threads, uint64_t key_range,
                   uint64_t writer_key_range) {
  ScenarioSpec s = base("HML", smr);
  s.threads = threads;
  s.key_range = key_range;
  s.phases[0].split_readers_writers = true;
  s.phases[0].writer_key_range = writer_key_range;
  return s;
}

TEST(Workloads, UpdateHeavyRunsForEveryScheme) {
  for (const auto& smr : ds::all_smr_names()) {
    const ScenarioSpec c = base("HML", smr, 50, 50);
    const auto r = run_scenario(c);
    EXPECT_GT(r.ops, 0u) << smr;
    EXPECT_GT(r.mops, 0.0) << smr;
    EXPECT_LE(r.final_size, c.key_range) << smr;
  }
}

TEST(Workloads, ReadHeavyMixRespectsRatios) {
  ScenarioSpec c = base("HMHT", "EpochPOP", 5, 5);
  c.phases[0].duration_ms = 100;
  const auto r = run_scenario(c);
  ASSERT_GT(r.ops, 1000u);
  const double read_frac =
      static_cast<double>(r.reads) / static_cast<double>(r.ops);
  EXPECT_NEAR(read_frac, 0.90, 0.05);
}

TEST(Workloads, SplitReadersWritersReportsReadThroughput) {
  const auto r = run_scenario(split("HazardPtrPOP", 4, 512, 32));
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.updates, 0u);
  EXPECT_GT(r.read_mops, 0.0);
}

TEST(Workloads, RetireThresholdBoundsRetireList) {
  ScenarioSpec c = base("DGT", "HazardPtrPOP", 50, 50);
  c.smr_cfg.retire_threshold = 64;
  const auto r = run_scenario(c);
  // A delete retires 2 nodes, so the high-watermark may exceed the
  // threshold by the per-op retire count but not run away.
  EXPECT_LE(r.smr.max_retire_len, c.smr_cfg.retire_threshold + 8);
}

TEST(Workloads, PopSchemesSendSignalsOnlyWhenReclaiming) {
  // read-only: nothing retired, nobody pings
  const auto r = run_scenario(base("HML", "HazardPtrPOP", 0, 0));
  EXPECT_EQ(r.smr.signals_sent, 0u);
  EXPECT_EQ(r.smr.retired, 0u);
}

TEST(Workloads, UpdateHeavyPopSchemesDoSignal) {
  ScenarioSpec c = base("HML", "HazardPtrPOP", 50, 50);
  c.smr_cfg.retire_threshold = 16;
  const auto r = run_scenario(c);
  EXPECT_GT(r.smr.signals_sent, 0u);
  EXPECT_GT(r.smr.freed, 0u);
}

TEST(Workloads, NbrNeutralizesUnderChurn) {
  // 4096 keys: long traversals for the readers.
  ScenarioSpec c = split("NBR", 4, 4096, 16);
  c.smr_cfg.retire_threshold = 16;  // constant reclaims => constant pings
  c.phases[0].duration_ms = 150;
  const auto r = run_scenario(c);
  EXPECT_GT(r.smr.neutralized, 0u)
      << "long readers must get restarted by NBR reclaimers";
}

TEST(Workloads, PutMixReportsTheKvBreakdown) {
  // pct_put reaches the workers and the KV breakdown comes back through
  // the shared OpCounts base.
  ScenarioSpec c = base("HMHT", "EpochPOP", 5, 5);
  c.phases[0].pct_put = 50;
  const auto r = run_scenario(c);
  ASSERT_GT(r.ops, 0u);
  EXPECT_GT(r.puts, 0u);
  EXPECT_GT(r.put_replaced, 0u);
  EXPECT_EQ(r.updates, r.inserts + r.erases + r.puts);
  EXPECT_EQ(r.reads, r.gets);
  EXPECT_GE(r.smr.retired, r.put_replaced);
}

TEST(Workloads, EnvListHelpersParse) {
  using namespace pop::bench;
  setenv("POPSMR_BENCH_THREADS", "1,3,5", 1);
  const auto ts = bench_thread_list("2,4");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], 1);
  EXPECT_EQ(ts[2], 5);
  unsetenv("POPSMR_BENCH_THREADS");
  const auto ts2 = bench_thread_list("2,4");
  ASSERT_EQ(ts2.size(), 2u);
  EXPECT_EQ(ts2[1], 4);
  // Unset with an empty fallback: empty, i.e. "the sweep's own list".
  EXPECT_TRUE(bench_thread_list("").empty());
  EXPECT_TRUE(bench_ds_list("").empty());
  EXPECT_FALSE(bench_smr_list().empty());
}

}  // namespace
}  // namespace pop::workload
