// The named scenario registry: every name builds a valid spec for every
// (ds, smr) pairing the matrix sweeps, descriptions exist, and a
// representative cell of each scenario actually executes in smoke mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "ds/iset.hpp"
#include "workload/scenario_engine.hpp"
#include "workload/scenarios.hpp"

namespace pop::workload {
namespace {

// TSan slows every operation ~10x but not the wall clock, so the smoke
// runs' ~30 ms phases can elapse before a slowed worker completes one op
// in each phase. Give sanitized builds full-length phases.
#if defined(__SANITIZE_THREAD__)
constexpr double kSmokeTimeScale = 1.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kSmokeTimeScale = 1.0;
#else
constexpr double kSmokeTimeScale = 0.2;
#endif
#else
constexpr double kSmokeTimeScale = 0.2;
#endif

TEST(Scenarios, RegistryListsAndDescribesEveryScenario) {
  const auto& names = scenario_names();
  ASSERT_GE(names.size(), 5u);
  for (const auto& n : names) {
    EXPECT_FALSE(scenario_description(n).empty()) << n;
    ASSERT_TRUE(make_scenario(n, {}).has_value()) << n;
  }
}

TEST(Scenarios, UnknownNameIsRejected) {
  EXPECT_FALSE(make_scenario("no-such-scenario", {}).has_value());
  EXPECT_TRUE(scenario_description("no-such-scenario").empty());
}

TEST(Scenarios, BuiltSpecsAreAlreadyNormalized) {
  // The registry's contract: normalize() would change nothing, for any
  // cell of the full (ds, smr) matrix at several thread counts.
  for (const auto& name : scenario_names()) {
    for (const auto& ds : ds::all_ds_names()) {
      for (int threads : {1, 2, 8}) {
        ScenarioBuild b;
        b.ds = ds;
        b.smr = "EpochPOP";
        b.threads = threads;
        auto spec = make_scenario(name, b);
        ASSERT_TRUE(spec.has_value());
        const auto warnings = normalize(*spec);
        EXPECT_TRUE(warnings.empty())
            << name << "/" << ds << "/t" << threads << ": " << warnings[0];
        EXPECT_FALSE(spec->phases.empty());
      }
    }
  }
}

TEST(Scenarios, BuildKnobsPropagate) {
  ScenarioBuild b;
  b.ds = "HMHT";
  b.smr = "NBR";
  b.threads = 6;
  b.key_range = 1024;
  b.time_scale = 0.5;
  auto full = make_scenario("stall-recovery", ScenarioBuild{});
  auto spec = make_scenario("stall-recovery", b);
  ASSERT_TRUE(spec.has_value() && full.has_value());
  EXPECT_EQ(spec->ds, "HMHT");
  EXPECT_EQ(spec->smr, "NBR");
  EXPECT_EQ(spec->threads, 6);
  EXPECT_EQ(spec->key_range, 1024u);
  EXPECT_TRUE(spec->stall.enabled);
  EXPECT_GT(spec->mem_sample_every_ms, 0u);
  // Half time scale shrinks the schedule.
  EXPECT_LT(spec->phases[0].duration_ms, full->phases[0].duration_ms);
}

TEST(Scenarios, HotspotChurnSmokeRunCycles) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "HazardPtrPOP";
  b.threads = 2;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("hotspot-churn", b);
  ASSERT_TRUE(spec.has_value());
  spec->smr_cfg.retire_threshold = 32;
  const auto r = run_scenario(*spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.churn_cycles, 0u);
  EXPECT_FALSE(r.samples.empty());
}

TEST(Scenarios, OversubscribedBurstSmokeRunsAllPhases) {
  ScenarioBuild b;
  b.ds = "HMHT";
  b.smr = "EpochPOP";
  b.threads = 2;
  // Longer phases than the other smokes: with an 8-thread burst past the
  // core count, a ~30 ms phase can starve a worker of its first op when
  // another suite shares the machine (ctest -j), reading as 0 phase ops.
  b.time_scale = kSmokeTimeScale * 3.0;
  b.key_range = 512;
  auto spec = make_scenario("oversubscribed-burst", b);
  ASSERT_TRUE(spec.has_value());
  spec->smr_cfg.retire_threshold = 32;
  const auto r = run_scenario(*spec);
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].threads, 8);  // 4x burst
  for (const auto& p : r.phases) EXPECT_GT(p.ops, 0u) << p.name;
}

TEST(Scenarios, KvUpdateHeavySmokeDrivesReplaceTraffic) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "EpochPOP";
  b.threads = 2;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("kv-update-heavy", b);
  ASSERT_TRUE(spec.has_value());
  spec->smr_cfg.retire_threshold = 32;
  const auto r = run_scenario(*spec);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_GT(r.phases[0].puts, 0u) << "put-heavy phase records put traffic";
  EXPECT_GT(r.phases[0].put_replaced, 0u)
      << "a prefilled range makes most puts replaces";
  EXPECT_GT(r.phases[1].gets, 0u) << "get-heavy phase reads values back";
  // Displaced nodes flow through the domain: at least one per replace.
  EXPECT_GE(r.smr.retired, r.put_replaced);
  EXPECT_EQ(r.rw_violations, 0u);
}

TEST(Scenarios, ZombieStormSmokeKillsAndReaps) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "EpochPOP";
  b.threads = 3;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("zombie-storm", b);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->faults.thread_kill);
  ASSERT_TRUE(spec->faults.kill_zombie);
  // A low threshold keeps reclaim passes (the reaper's only vehicle)
  // frequent inside the short smoke window.
  spec->smr_cfg.retire_threshold = 16;
  const auto r = run_scenario(*spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GE(r.kills, 1u) << "the injector never fired";
  EXPECT_GE(r.smr.tids_reaped, 1u)
      << "no corpse was ever certified: the reaper never ran";
}

TEST(Scenarios, PressureBackstopSmokeForcesPasses) {
  ScenarioBuild b;
  b.ds = "HML";
  b.smr = "EBR";  // the non-robust scheme: a parked victim pins everything
  b.threads = 3;
  b.time_scale = kSmokeTimeScale;
  b.key_range = 256;
  auto spec = make_scenario("pressure-backstop", b);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->stall.enabled);
  ASSERT_GT(spec->smr_cfg.pressure_bound, 0u);
  // Shrink threshold and bound together so the stall window reliably
  // crosses the bound even on a loaded CI machine.
  spec->smr_cfg.retire_threshold = 32;
  spec->smr_cfg.pressure_bound =
      spec->smr_cfg.retire_threshold * static_cast<uint64_t>(spec->threads) * 2;
  const auto r = run_scenario(*spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.smr.pressure_events, 0u)
      << "unreclaimed never crossed the bound; the backstop was idle";
  EXPECT_GT(r.smr.forced_handshakes, 0u);
  // Graceful degradation, not enforcement: the run finished (liveness)
  // and by teardown the backlog drained below where the stall pushed it.
  EXPECT_LT(r.final_unreclaimed, std::max<uint64_t>(r.stall_peak_unreclaimed,
                                                    1));
}

// ---- presets ---------------------------------------------------------------

// What a figure cell runs: the fields a paper-figure sweep varies.
struct FigCell {
  std::string ds;
  uint64_t key_range;
  uint32_t ins, ers;
  bool split;
  int threads;
  std::string smr;
  uint64_t retire_threshold, epoch_freq, pop_multiplier, duration_ms;
  bool operator==(const FigCell&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FigCell& c) {
  return os << c.ds << "/" << c.key_range << " " << c.ins << "i/" << c.ers
            << "d" << (c.split ? " split" : "") << " t" << c.threads << " "
            << c.smr << " rt" << c.retire_threshold << " ef" << c.epoch_freq
            << " C" << c.pop_multiplier << " " << c.duration_ms << "ms";
}

std::vector<FigCell> expand(const std::string& preset) {
  const auto sweep = make_sweep(preset, {});
  EXPECT_TRUE(sweep.has_value()) << preset;
  std::vector<FigCell> out;
  if (!sweep) return out;
  for (const auto& cell : sweep->cells) {
    const ScenarioSpec& s = cell.spec;
    EXPECT_EQ(s.phases.size(), 1u) << preset;
    EXPECT_EQ(s.shards, 1) << preset;
    EXPECT_EQ(s.prefill, UINT64_MAX) << preset;  // half the key range
    EXPECT_EQ(s.initial_capacity, 0u) << preset;
    EXPECT_EQ(s.load_factor, 6.0) << preset;
    EXPECT_EQ(s.smr_cfg.num_slots, smr::SmrConfig{}.num_slots) << preset;
    EXPECT_EQ(s.smr_cfg.pressure_bound, 0u) << preset;
    const PhaseSpec& p = s.phases.at(0);
    EXPECT_EQ(p.pct_put, 0u) << preset;
    out.push_back({s.ds, s.key_range, p.pct_insert, p.pct_erase,
                   p.split_readers_writers, s.threads, s.smr,
                   s.smr_cfg.retire_threshold, s.smr_cfg.epoch_freq,
                   s.smr_cfg.pop_multiplier, p.duration_ms});
    if (p.split_readers_writers) {
      EXPECT_EQ(p.writer_key_range, 64u);
    }
  }
  return out;
}

// A paper-figure sweep as nested loops: every (ds, mix, threads, scheme)
// in order, at one retire threshold and cell length.
struct Loop {
  std::vector<std::pair<std::string, uint64_t>> ds;
  std::vector<std::pair<uint32_t, uint32_t>> mixes;
  std::vector<int> threads;
  std::vector<std::string> smrs;
  uint64_t threshold, duration_ms;
};

std::vector<FigCell> loop(const Loop& l) {
  std::vector<FigCell> out;
  for (const auto& [ds, range] : l.ds) {
    for (const auto& [ins, ers] : l.mixes) {
      for (int t : l.threads) {
        for (const auto& smr : l.smrs) {
          out.push_back({ds, range, ins, ers, false, t, smr, l.threshold, 64,
                         2, l.duration_ms});
        }
      }
    }
  }
  return out;
}

TEST(Presets, EveryPresetIsListedAndDescribed) {
  for (const auto& name : preset_names()) {
    EXPECT_FALSE(scenario_description(name).empty()) << name;
    const auto sweep = make_sweep(name, {});
    ASSERT_TRUE(sweep.has_value()) << name;
    EXPECT_FALSE(sweep->cells.empty()) << name;
  }
  EXPECT_FALSE(make_sweep("no-such-preset", {}).has_value());
}

TEST(Presets, FigurePresetsExpandToThePaperSweeps) {
  const auto all = ds::all_smr_names();
  const std::pair<uint32_t, uint32_t> update{50, 50}, read{5, 5};
  const std::vector<int> t124 = {1, 2, 4};

  const auto fig1 = loop({{{"DGT", 8192}, {"HMHT", 16384}, {"ABT", 65536}},
                          {update}, t124, all, 512, 200});
  EXPECT_EQ(fig1.size(), 99u);
  EXPECT_EQ(expand("fig1"), fig1);

  const auto fig2 =
      loop({{{"HML", 2048}, {"LL", 2048}}, {update}, t124, all, 512, 200});
  EXPECT_EQ(fig2.size(), 66u);
  EXPECT_EQ(expand("fig2"), fig2);

  const auto fig3 =
      loop({{{"ABT", 65536}, {"DGT", 8192}}, {read}, t124, all, 512, 200});
  EXPECT_EQ(fig3.size(), 66u);
  EXPECT_EQ(expand("fig3"), fig3);

  std::vector<FigCell> fig4;
  for (uint64_t size : {10'000, 50'000, 100'000}) {
    for (const auto& smr : all) {
      fig4.push_back({"HML", size, 25, 25, true, 4, smr, 64, 64, 2, 300});
    }
  }
  EXPECT_EQ(fig4.size(), 33u);
  EXPECT_EQ(expand("fig4"), fig4);

  const auto fig5_9 = loop({{{"ABT", 65536},
                             {"DGT", 8192},
                             {"HMHT", 16384},
                             {"HML", 2048},
                             {"LL", 2048}},
                            {update, read},
                            {2, 4},
                            all,
                            512,
                            150});
  EXPECT_EQ(fig5_9.size(), 220u);
  EXPECT_EQ(expand("fig5-9"), fig5_9);

  const auto fig10_11 =
      loop({{{"HML", 2048}, {"HMHT", 16384}},
            {update, read},
            t124,
            {"NR", "BRC", "EBR", "HazardPtrPOP", "HazardEraPOP", "EpochPOP"},
            512,
            200});
  EXPECT_EQ(fig10_11.size(), 72u);
  EXPECT_EQ(expand("fig10-11"), fig10_11);

  const auto oversub =
      loop({{{"HMHT", 16384}},
            {update},
            {1, 2, 4, 8, 16, 32},
            {"HP", "HPAsym", "EBR", "HazardPtrPOP", "EpochPOP", "NBR"},
            512,
            150});
  EXPECT_EQ(oversub.size(), 36u);
  EXPECT_EQ(expand("ablation-oversubscription"), oversub);

  std::vector<FigCell> thresholds;
  for (uint64_t thr : {32, 128, 512, 2048, 8192}) {
    for (const char* smr : {"HazardPtrPOP", "EpochPOP", "HP", "NBR"}) {
      thresholds.push_back({"HML", 2048, 50, 50, false, 4, smr, thr, 64, 2,
                            150});
    }
  }
  for (uint64_t c : {2, 4, 8}) {
    thresholds.push_back({"HMHT", 16384, 50, 50, false, 4, "EpochPOP", 256,
                          64, c, 150});
  }
  for (uint64_t ef : {1, 16, 64, 256}) {
    for (const char* smr : {"EBR", "EpochPOP"}) {
      thresholds.push_back({"DGT", 8192, 50, 50, false, 4, smr, 512, ef, 2,
                            150});
    }
  }
  EXPECT_EQ(thresholds.size(), 31u);
  EXPECT_EQ(expand("ablation-thresholds"), thresholds);
}

TEST(Presets, ReferenceCellsPrecedeAndMatchTheirCells) {
  // fig4: every cell is compared against NR at the same list size.
  const auto fig4 = make_sweep("fig4", {});
  ASSERT_TRUE(fig4.has_value());
  EXPECT_EQ(fig4->metric, RefMetric::kReadMops);
  for (size_t i = 0; i < fig4->cells.size(); ++i) {
    const auto& c = fig4->cells[i];
    ASSERT_GE(c.ref, 0);
    ASSERT_LE(static_cast<size_t>(c.ref), i);
    const auto& r = fig4->cells[static_cast<size_t>(c.ref)].spec;
    EXPECT_EQ(r.smr, "NR");
    EXPECT_EQ(r.key_range, c.spec.key_range);
  }
  // An overridden scheme list without NR has no reference; one that
  // names NR late still runs it first.
  SweepAxes ax;
  ax.smrs = {"EBR", "EpochPOP"};
  const auto no_nr = make_sweep("fig4", ax);
  for (const auto& c : no_nr->cells) EXPECT_EQ(c.ref, -1);
  ax.smrs = {"EBR", "NR"};
  const auto late = make_sweep("fig4", ax);
  EXPECT_EQ(late->cells[0].spec.smr, "NR");
  EXPECT_EQ(late->cells[1].ref, 0);

  // resize: every RHHT deficit cell is compared against the right-sized
  // fixed HMHT under the same scheme and thread count.
  const auto resize = make_sweep("resize", {});
  ASSERT_TRUE(resize.has_value());
  EXPECT_EQ(resize->metric, RefMetric::kMops);
  EXPECT_EQ(resize->cells.size(), 4 * ds::all_smr_names().size());
  for (size_t i = 0; i < resize->cells.size(); ++i) {
    const auto& c = resize->cells[i];
    ASSERT_GE(c.ref, 0);
    ASSERT_LE(static_cast<size_t>(c.ref), i);
    const auto& r = resize->cells[static_cast<size_t>(c.ref)].spec;
    EXPECT_EQ(r.ds, "HMHT");
    EXPECT_EQ(r.initial_capacity, 0u);
    EXPECT_EQ(r.smr, c.spec.smr);
    EXPECT_EQ(r.threads, c.spec.threads);
    EXPECT_EQ(c.spec.prefill, 0u);
    ASSERT_EQ(c.spec.phases.size(), 2u);
  }
}

TEST(Presets, SweepPresetsCarryTheirAxes) {
  // kv: put ratios 0/10/50/90 over a 5/5 background on HML and HMHT.
  const auto kv = make_sweep("kv", {});
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->cells.size(), 2 * 4 * ds::all_smr_names().size());
  std::vector<uint32_t> puts;
  for (const auto& c : kv->cells) {
    if (c.spec.ds == "HML" && c.spec.smr == "NR") {
      puts.push_back(c.spec.phases.at(0).pct_put);
    }
  }
  EXPECT_EQ(puts, (std::vector<uint32_t>{0, 10, 50, 90}));

  // faults: signal-loss, zombie-storm and pressure-backstop per cell.
  SweepAxes ax;
  ax.smrs = {"EpochPOP"};
  ax.short_mode = true;
  const auto faults = make_sweep("faults", ax);
  ASSERT_TRUE(faults.has_value());
  ASSERT_EQ(faults->cells.size(), 3u);
  EXPECT_TRUE(faults->cells[0].spec.faults.signal_loss);
  EXPECT_TRUE(faults->cells[1].spec.faults.thread_kill);
  EXPECT_GT(faults->cells[2].spec.smr_cfg.pressure_bound, 0u);
  for (const auto& c : faults->cells) {
    EXPECT_EQ(c.spec.key_range, 512u);  // --short caps the range
  }
}

TEST(Presets, AxesOverrideTheSweep) {
  SweepAxes ax;
  ax.ds = {"HML", "RHHT"};
  ax.smrs = {"EBR"};
  ax.threads = {2};
  ax.shards = {1, 4};
  ax.shard_hash = "modulo";
  ax.duration_ms = 40;
  const auto fig1 = make_sweep("fig1", ax);
  ASSERT_TRUE(fig1.has_value());
  // fig1 lacks both structures: each gets a default-range case.
  ASSERT_EQ(fig1->cells.size(), 4u);
  EXPECT_EQ(fig1->cells[0].spec.ds, "HML");
  EXPECT_EQ(fig1->cells[0].spec.key_range, 2048u);
  EXPECT_EQ(fig1->cells[1].spec.shards, 4);
  EXPECT_EQ(fig1->cells[2].spec.ds, "RHHT");
  for (const auto& c : fig1->cells) {
    EXPECT_EQ(c.spec.smr, "EBR");
    EXPECT_EQ(c.spec.threads, 2);
    EXPECT_EQ(c.spec.shard_hash, "modulo");
    EXPECT_EQ(c.spec.phases.at(0).duration_ms, 40u);
  }
  // A named scenario is a one-shape sweep over the same axes.
  const auto named = make_sweep("sharded-uniform", ax);
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->cells.size(), 4u);
  EXPECT_EQ(named->cells[0].spec.name, "sharded-uniform");
}

TEST(Presets, RunSweepReportsRecoveryAgainstTheReference) {
  SweepAxes ax;
  ax.ds = {"HMHT"};
  ax.smrs = {"EBR", "NR"};
  ax.threads = {2};
  ax.duration_ms = 100;
  ax.short_mode = true;
  auto sweep = make_sweep("fig4", ax);
  ASSERT_TRUE(sweep.has_value());
  std::vector<double> pct;
  run_sweep(*sweep, [&](const ScenarioSpec&, const ScenarioResult& r,
                        double recovery_pct) {
    EXPECT_GT(r.ops, 0u);
    pct.push_back(recovery_pct);
  });
  ASSERT_EQ(pct.size(), 2u);
  EXPECT_NEAR(pct[0], 100.0, 1e-9);  // NR against itself
  EXPECT_GT(pct[1], 0.0);
}

}  // namespace
}  // namespace pop::workload
