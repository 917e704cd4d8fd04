// End-to-end runs of one-phase workloads through the scenario engine:
// short timed cells across representative configurations, checking the
// metrics the figure presets are built from (throughput > 0, retire-list
// bounds, signal counts), plus the bench flag parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../../bench/cli.hpp"
#include "ds/iset.hpp"
#include "obs/obs.hpp"
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

bench::BenchOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return bench::apply_bench_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, ListsKeepOrderInEitherFlagForm) {
  const auto o = parse({"--threads", "4,1,2", "--smr=EpochPOP,EBR",
                        "--ds", "HMHT,HML", "--shards=8,1",
                        "--shard-hash", "modulo", "--duration-ms=50",
                        "--json", "out.jsonl", "--port=0", "--connections",
                        "16", "--pipeline=32", "--net-workers", "3",
                        "--host=127.0.0.1", "--scenario", "kv", "--short"});
  EXPECT_EQ(o.axes.threads, (std::vector<int>{4, 1, 2}));
  EXPECT_EQ(o.axes.smrs, (std::vector<std::string>{"EpochPOP", "EBR"}));
  EXPECT_EQ(o.axes.ds, (std::vector<std::string>{"HMHT", "HML"}));
  EXPECT_EQ(o.axes.shards, (std::vector<int>{8, 1}));
  EXPECT_EQ(o.axes.shard_hash, "modulo");
  EXPECT_EQ(o.axes.duration_ms, 50u);
  EXPECT_TRUE(o.axes.short_mode);
  EXPECT_EQ(o.json, "out.jsonl");
  EXPECT_EQ(o.port, 0);
  EXPECT_EQ(o.connections, 16);
  EXPECT_EQ(o.pipeline, 32);
  EXPECT_EQ(o.net_workers, 3);
  EXPECT_EQ(o.host, "127.0.0.1");
  EXPECT_EQ(o.scenario, "kv");
}

TEST(BenchOptions, AbsentListsKeepTheSweepDefaults) {
  const auto o = parse({});
  EXPECT_TRUE(o.axes.threads.empty());
  EXPECT_TRUE(o.axes.smrs.empty());
  EXPECT_TRUE(o.axes.ds.empty());
  EXPECT_TRUE(o.axes.shards.empty());
  EXPECT_TRUE(o.axes.shard_hash.empty());
  EXPECT_EQ(o.axes.duration_ms, 0u);
  EXPECT_FALSE(o.axes.short_mode);
  EXPECT_TRUE(o.json.empty());
  EXPECT_TRUE(o.host.empty());
  // An absent list is exactly what a sweep reads as "keep your own".
  const auto by_default = make_sweep("fig2", o.axes);
  const auto explicit_default = make_sweep("fig2", SweepAxes{});
  ASSERT_TRUE(by_default && explicit_default);
  EXPECT_EQ(by_default->cells.size(), explicit_default->cells.size());
}

// The bench flags are the only switches of the three observability
// channels: each flag turns its channel on, and a run without them
// leaves all three off.
TEST(BenchOptions, ObservabilityFlagsSwitchTheirChannels) {
  obs::set_latency(false);
  obs::set_hw(false);
  obs::disarm_trace();

  const auto plain = parse({"--threads", "2"});
  EXPECT_FALSE(plain.latency);
  EXPECT_FALSE(obs::latency_on());
  EXPECT_FALSE(obs::hw_on());
  EXPECT_FALSE(obs::trace_on());

  const std::string trace = ::testing::TempDir() + "bench_cli_flags.json";
  const auto o =
      parse({"--latency", "--hw-counters", "--trace", trace});
  EXPECT_TRUE(o.latency);
  EXPECT_TRUE(o.hw_counters);
  EXPECT_EQ(o.trace, trace);
  EXPECT_TRUE(obs::latency_on());
  EXPECT_TRUE(obs::hw_on());
  EXPECT_TRUE(obs::trace_on());

  // Restore: channels off, and nothing armed for the exit-time dump.
  obs::set_latency(false);
  obs::set_hw(false);
  obs::disarm_trace();
  std::remove(trace.c_str());
}

TEST(BenchOptionsDeathTest, MalformedValuesExitTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--threads", "abc"}), exits_2, "--threads 'abc'");
  EXPECT_EXIT(parse({"--threads", "0"}), exits_2, "--threads '0'");
  EXPECT_EXIT(parse({"--threads=2,,4"}), exits_2, "--threads ''");
  EXPECT_EXIT(parse({"--shards", "x"}), exits_2, "--shards 'x'");
  EXPECT_EXIT(parse({"--duration-ms", "50x"}), exits_2, "--duration-ms '50x'");
  EXPECT_EXIT(parse({"--port", "70000"}), exits_2, "--port '70000'");
  EXPECT_EXIT(parse({"--smr", "EBR,../x"}), exits_2, "--smr '../x'");
  EXPECT_EXIT(parse({"--smrs", "EBR"}), exits_2, "unknown flag '--smrs'");
}

}  // namespace
}  // namespace pop::workload
