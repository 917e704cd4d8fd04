#include "workload/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "ds/iset.hpp"

namespace pop::workload {

namespace {

uint64_t scaled_ms(uint64_t ms, double scale) {
  const double v = std::ceil(static_cast<double>(ms) * scale);
  return v < 1.0 ? 1 : static_cast<uint64_t>(v);
}

// List traversals are O(size): give them a smaller default universe than
// the log/const-depth structures so cells finish in comparable time.
uint64_t default_range(const std::string& ds) {
  return (ds == "HML" || ds == "LL") ? 2048 : 16384;
}

PhaseSpec phase(const char* name, uint64_t dur_ms, uint32_t ins, uint32_t ers,
                double scale) {
  PhaseSpec p;
  p.name = name;
  p.duration_ms = scaled_ms(dur_ms, scale);
  p.pct_insert = ins;
  p.pct_erase = ers;
  return p;
}

// ---- presets: the figures, ablations and kv / resize / faults sweeps ------

// Smoke mode (--short) caps every key range here.
constexpr uint64_t kShortKeyRange = 512;

struct DsCase {
  std::string ds{};
  uint64_t key_range = 0;  // 0 = default_range(ds)
  uint64_t deficit = 1;    // provision the table for key_range / deficit
};

// One cross product of cells, looped ds -> shape -> cfg -> threads -> smr
// (-> shards, the caller's axis). A shape is a phase schedule, or a named
// scenario when `scenarios` is set (which then owns its smr_cfg). The
// default SmrConfig is the figures' scaled retire threshold, 512.
struct Block {
  std::vector<DsCase> ds{};
  std::vector<std::vector<PhaseSpec>> schedules{};
  std::vector<std::string> scenarios{};
  std::vector<smr::SmrConfig> cfgs = {smr::SmrConfig{}};
  std::vector<int> threads = {4};
  std::vector<std::string> smrs{};  // empty = every scheme
};

struct Preset {
  std::string name{};
  std::string description{};
  uint64_t phase_ms = 0;  // every scheduled phase's length
  uint64_t prefill = UINT64_MAX;
  std::vector<Block> blocks{};
  // recovery_pct divides `metric` by the same metric on a reference cell:
  // the same coordinates under `ref_smr`, or on the block's first ds case.
  RefMetric metric = RefMetric::kMops;
  std::string ref_smr{};
  bool ref_first_ds = false;
};

PhaseSpec mix(const char* name, uint32_t ins, uint32_t ers, uint32_t put = 0) {
  PhaseSpec p = phase(name, 0, ins, ers, 1.0);
  p.pct_put = put;
  return p;
}

std::vector<smr::SmrConfig> sweep_cfg(uint64_t smr::SmrConfig::*knob,
                                      std::initializer_list<uint64_t> values,
                                      uint64_t retire_threshold = 512) {
  std::vector<smr::SmrConfig> out;
  for (const uint64_t v : values) {
    out.emplace_back().retire_threshold = retire_threshold;
    out.back().*knob = v;
  }
  return out;
}

const std::vector<Preset>& presets() {
  static const std::vector<Preset> all = [] {
    const std::vector<PhaseSpec> update = {mix("update-heavy", 50, 50)};
    const std::vector<PhaseSpec> read = {mix("read-heavy", 5, 5)};
    PhaseSpec long_reads = mix("long-reads", 25, 25);
    long_reads.split_readers_writers = true;
    long_reads.writer_key_range = 64;  // updates near the head
    std::vector<std::vector<PhaseSpec>> put_ratios;
    for (uint32_t put : {0, 10, 50, 90}) {
      // A fixed 5/5 insert/erase background keeps membership churning so
      // puts keep splitting into insert vs replace outcomes.
      put_ratios.push_back({mix("kv", 5, 5, put)});
    }
    using C = smr::SmrConfig;
    const std::vector<int> t124 = {1, 2, 4};
    return std::vector<Preset>{
        {.name = "fig1",
         .description =
             "Figure 1: update-heavy 50i/50d on DGT, HMHT and ABT — "
             "throughput and max retire-list size per scheme (paper: "
             "200K/6M/20M keys, 1..288 threads, 5 s, threshold 24K; scaled "
             "to ranges 8K/16K/64K, 200 ms, threshold 512)",
         .phase_ms = 200,
         .blocks = {{.ds = {{"DGT", 8192}, {"HMHT", 16384}, {"ABT", 65536}},
                     .schedules = {update},
                     .threads = t124}}},
        {.name = "fig2",
         .description = "Figure 2: update-heavy 50i/50d on the Harris-Michael "
                        "and lazy lists, size 1K (range 2K) — the list "
                        "traversals where per-read fences dominate",
         .phase_ms = 200,
         .blocks = {{.ds = {{"HML", 2048}, {"LL", 2048}},
                     .schedules = {update},
                     .threads = t124}}},
        {.name = "fig3",
         .description = "Figure 3: read-heavy 90c/5i/5d on ABT and DGT — "
                        "HP/HE still fence on every read, the POP family "
                        "reads fence-free",
         .phase_ms = 200,
         .blocks = {{.ds = {{"ABT", 65536}, {"DGT", 8192}},
                     .schedules = {read},
                     .threads = t124}}},
        {.name = "fig4",
         .description =
             "Figure 4: long-running reads on HML 10K/50K/100K; half the "
             "threads run full-range contains, half update near the head "
             "under retire threshold 64 (paper: 96+96 threads, 2K). "
             "recovery_pct is read throughput vs NR's; neutralized counts "
             "NBR's restarts",
         .phase_ms = 300,
         .blocks = {{.ds = {{"HML", 10'000}, {"HML", 50'000}, {"HML", 100'000}},
                     .schedules = {{long_reads}},
                     .cfgs = sweep_cfg(&C::retire_threshold, {64})}},
         .metric = RefMetric::kReadMops,
         .ref_smr = "NR"},
        {.name = "fig5-9",
         .description = "Figures 5-9: every structure, update- and "
                        "read-heavy, with the appendix's memory metrics "
                        "(VmHWM is a process-lifetime high-watermark)",
         .phase_ms = 150,
         .blocks = {{.ds = {{"ABT", 65536},
                            {"DGT", 8192},
                            {"HMHT", 16384},
                            {"HML", 2048},
                            {"LL", 2048}},
                     .schedules = {update, read},
                     .threads = {2, 4}}}},
        {.name = "fig10-11",
         .description =
             "Figures 10-11: HML 2K and HMHT 16K, update- and read-heavy, "
             "POP against BRC. BRC stands in for Crystalline: batched "
             "reference counting with the same reader profile (no per-read "
             "work, one announcement per op, batch frees after grace "
             "periods), so the comparison of interest — POP vs a fast "
             "low-memory non-reservation scheme — is preserved",
         .phase_ms = 200,
         .blocks = {{.ds = {{"HML", 2048}, {"HMHT", 16384}},
                     .schedules = {update, read},
                     .threads = t124,
                     .smrs = {"NR", "BRC", "EBR", "HazardPtrPOP",
                              "HazardEraPOP", "EpochPOP"}}}},
        {.name = "ablation-oversubscription",
         .description = "§4.1.2 ablation: HMHT 16K update-heavy at 1..32 "
                        "threads — POP's worst case, a reclaimer waiting "
                        "for descheduled threads to publish",
         .phase_ms = 150,
         .blocks = {{.ds = {{"HMHT", 16384}},
                     .schedules = {update},
                     .threads = {1, 2, 4, 8, 16, 32},
                     .smrs = {"HP", "HPAsym", "EBR", "HazardPtrPOP",
                              "EpochPOP", "NBR"}}}},
        {.name = "ablation-thresholds",
         .description = "update-heavy ablations: (a) retire_threshold on HML "
                        "2K, (b) EpochPOP's C multiplier on HMHT 16K, (c) "
                        "epoch_freq for EBR vs EpochPOP on DGT 8K",
         .phase_ms = 150,
         .blocks = {{.ds = {{"HML", 2048}},
                     .schedules = {update},
                     .cfgs = sweep_cfg(&C::retire_threshold,
                                       {32, 128, 512, 2048, 8192}),
                     .smrs = {"HazardPtrPOP", "EpochPOP", "HP", "NBR"}},
                    {.ds = {{"HMHT", 16384}},
                     .schedules = {update},
                     .cfgs = sweep_cfg(&C::pop_multiplier, {2, 4, 8}, 256),
                     .smrs = {"EpochPOP"}},
                    {.ds = {{"DGT", 8192}},
                     .schedules = {update},
                     .cfgs = sweep_cfg(&C::epoch_freq, {1, 16, 64, 256}),
                     .smrs = {"EBR", "EpochPOP"}}}},
        {.name = "kv",
         .description = "put-ratio sweep, 0/10/50/90% puts over a 5i/5d "
                        "background: every replace retires the displaced "
                        "node, traffic set-only mixes never produce",
         .phase_ms = 200,
         .blocks = {{.ds = {{"HML", 2048}, {"HMHT", 16384}},
                     .schedules = put_ratios}}},
        {.name = "resize",
         .description = "deficit sweep: a storm phase fills a cold table "
                        "provisioned for key_range/D keys (D = 1, 16, 64), "
                        "then a steady phase; recovery_pct is steady "
                        "throughput vs a right-sized fixed HMHT's",
         .phase_ms = 200,
         .prefill = 0,  // the storm is the fill: growth happens under load
         .blocks = {{.ds = {{"HMHT", 16384, 1},
                            {"RHHT", 16384, 1},
                            {"RHHT", 16384, 16},
                            {"RHHT", 16384, 64}},
                     .schedules = {{mix("storm", 70, 0, 20),
                                    mix("steady", 10, 10, 20)}}}},
         .metric = RefMetric::kMops,
         .ref_first_ds = true},
        {.name = "faults",
         .description = "signal-loss (watchdog), zombie-storm (reaper) and "
                        "pressure-backstop (backstop) per cell",
         .blocks = {{.ds = {{"HML"}},
                     .scenarios = {"signal-loss", "zombie-storm",
                                   "pressure-backstop"}}}},
    };
  }();
  return all;
}

const Preset* find_preset(const std::string& name) {
  for (const auto& p : presets()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// The preset's cases for each requested structure, in request order; a
// structure the preset lacks gets a default-range case.
std::vector<DsCase> pick_ds(const std::vector<DsCase>& own,
                            const std::vector<std::string>& want) {
  if (want.empty()) return own;
  std::vector<DsCase> out;
  for (const auto& d : want) {
    const size_t before = out.size();
    for (const auto& c : own) {
      if (c.ds == d) out.push_back(c);
    }
    if (out.size() == before) out.push_back({d});
  }
  return out;
}

}  // namespace

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& p : presets()) v.push_back(p.name);
    return v;
  }();
  return names;
}

std::optional<Sweep> make_sweep(const std::string& name,
                                const SweepAxes& ax) {
  const Preset* p = find_preset(name);
  Preset single;  // a named scenario is a one-shape preset
  if (p == nullptr) {
    if (!make_scenario(name, {})) return std::nullopt;
    single = {.name = name, .blocks = {{.ds = {{"HML"}}, .scenarios = {name}}}};
    p = &single;
  }
  const double scale = ax.short_mode ? 0.25 : 1.0;
  const uint64_t phase_ms =
      scaled_ms(ax.duration_ms ? ax.duration_ms : p->phase_ms, scale);
  const std::vector<int> shard_list =
      ax.shards.empty() ? std::vector<int>{0} : ax.shards;

  Sweep out;
  out.metric = p->metric;
  for (const Block& b : p->blocks) {
    const auto cases = pick_ds(b.ds, ax.ds);
    auto smrs = !ax.smrs.empty()  ? ax.smrs
                : !b.smrs.empty() ? b.smrs
                                  : ds::all_smr_names();
    // The reference scheme runs first, so every reference precedes the
    // cells compared against it.
    std::stable_partition(smrs.begin(), smrs.end(), [&](const auto& s) {
      return s == p->ref_smr;
    });
    const bool has_ref_smr =
        !p->ref_smr.empty() && !smrs.empty() && smrs[0] == p->ref_smr;
    const auto& threads = ax.threads.empty() ? b.threads : ax.threads;
    const bool scenario_shapes = !b.scenarios.empty();
    const size_t nshape =
        scenario_shapes ? b.scenarios.size() : b.schedules.size();
    const size_t ncfg = scenario_shapes ? 1 : b.cfgs.size();
    const size_t nshards = shard_list.size();
    const size_t per_ds =
        nshape * ncfg * threads.size() * smrs.size() * nshards;

    for (size_t di = 0; di < cases.size(); ++di) {
      const DsCase& c = cases[di];
      uint64_t range = c.key_range ? c.key_range : default_range(c.ds);
      if (ax.short_mode) range = std::min(range, kShortKeyRange);
      for (size_t si = 0; si < nshape; ++si) {
        for (size_t ci = 0; ci < ncfg; ++ci) {
          for (size_t ti = 0; ti < threads.size(); ++ti) {
            for (size_t mi = 0; mi < smrs.size(); ++mi) {
              for (size_t hi = 0; hi < nshards; ++hi) {
                ScenarioSpec s;
                if (scenario_shapes) {
                  ScenarioBuild sb;
                  sb.ds = c.ds;
                  sb.smr = smrs[mi];
                  sb.threads = threads[ti];
                  sb.time_scale = scale;
                  sb.key_range = range;
                  sb.shards = shard_list[hi];
                  s = *make_scenario(b.scenarios[si], sb);
                } else {
                  s.name = p->name;
                  s.ds = c.ds;
                  s.smr = smrs[mi];
                  s.threads = threads[ti];
                  s.shards = std::max(1, shard_list[hi]);
                  s.key_range = range;
                  s.prefill = p->prefill;
                  if (c.deficit > 1) {
                    s.initial_capacity =
                        std::max<uint64_t>(2, range / c.deficit);
                  }
                  s.smr_cfg = b.cfgs[ci];
                  s.phases = b.schedules[si];
                  for (auto& ph : s.phases) ph.duration_ms = phase_ms;
                }
                if (!ax.shard_hash.empty()) s.shard_hash = ax.shard_hash;

                // The reference differs only in its scheme (index 0) or
                // its ds case (index 0): one stride back per index.
                const size_t at = out.cells.size();
                int ref = -1;
                if (has_ref_smr) ref = static_cast<int>(at - mi * nshards);
                if (p->ref_first_ds) ref = static_cast<int>(at - di * per_ds);
                out.cells.push_back({std::move(s), ref});
              }
            }
          }
        }
      }
    }
  }
  return out;
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "uniform-mixed",  "hotspot-churn",        "moving-hotspot",
      "stall-recovery", "oversubscribed-burst", "sharded-uniform",
      "sharded-hotspot", "kv-update-heavy",     "grow-churn",
      "resize-storm",   "zombie-storm",         "pressure-backstop",
      "signal-loss",
  };
  return names;
}

std::string scenario_description(const std::string& name) {
  if (name == "uniform-mixed") {
    return "control cell: one phase, uniform keys, 25i/25d/50c, static pool";
  }
  if (name == "hotspot-churn") {
    return "90% of ops on a 10% hot set while workers exit and fresh "
           "threads re-register (registry tid recycling under ping waves)";
  }
  if (name == "moving-hotspot") {
    return "write-burst then read-mostly phases with the hot window "
           "sliding across the key space mid-phase";
  }
  if (name == "stall-recovery") {
    return "a victim worker parks mid-operation holding its reservation; "
           "the timeline shows unreclaimed memory grow and recover";
  }
  if (name == "oversubscribed-burst") {
    return "4x thread burst (past the core count) -> read-mostly -> "
           "erase-heavy drain, exercising preempted-thread handshakes";
  }
  if (name == "sharded-uniform") {
    return "key space partitioned over N shards (one SMR domain each), "
           "uniform keys: the domain-contention split scale axis";
  }
  if (name == "sharded-hotspot") {
    return "sharded map under Zipfian keys: the head keys concentrate on "
           "one hot shard while the rest idle (skewed service traffic)";
  }
  if (name == "kv-update-heavy") {
    return "value-carrying map traffic: a put-heavy phase (replaces retire "
           "displaced nodes under active readers) then a get-heavy phase "
           "over the rewritten keys";
  }
  if (name == "grow-churn") {
    return "a table provisioned for 1/64th of the key range fills under "
           "insert-heavy traffic while workers churn: grow-path descriptor "
           "CASes race recycled registry tids (RHHT resizes; fixed tables "
           "just run long buckets)";
  }
  if (name == "resize-storm") {
    return "fill -> drain -> refill oscillation on an under-provisioned "
           "table with a victim parked through the drain: bucket-array "
           "retirement (one large Reclaimable per displaced descriptor) "
           "flows through the batched sweep against a pinned reservation";
  }
  if (name == "zombie-storm") {
    return "workers are repeatedly killed inside operation brackets "
           "(registry slot leaked: only tgkill certification reclaims it) "
           "while replacements respawn; the reaper must certify corpses, "
           "neutralize their reservations and adopt orphaned retires";
  }
  if (name == "pressure-backstop") {
    return "a victim parks holding its reservation under a tight "
           "pressure_bound: unreclaimed crosses the bound, the "
           "backstop forces passes, degrades to defer-and-warn while "
           "pinned, and recovers once the victim resumes";
  }
  if (name == "signal-loss") {
    return "stall-recovery with every ping to the parked victim dropped "
           "until it resumes: a POP wave cannot complete, so the watchdog "
           "must time it out and defer";
  }
  for (const auto& p : presets()) {
    if (name == p.name) return p.description;
  }
  return "";
}

std::optional<ScenarioSpec> make_scenario(const std::string& name,
                                          const ScenarioBuild& b) {
  ScenarioSpec s;
  s.name = name;
  s.ds = b.ds;
  s.smr = b.smr;
  s.threads = std::max(1, b.threads);
  s.key_range = b.key_range ? b.key_range : default_range(b.ds);
  // Any scenario can run sharded (--shards sweeps the axis); only
  // the sharded-* scenarios default it above 1.
  s.shards = b.shards > 0 ? b.shards : 1;
  const double sc = b.time_scale > 0 ? b.time_scale : 1.0;

  if (name == "uniform-mixed") {
    s.phases.push_back(phase("mixed", 200, 25, 25, sc));
    return s;
  }

  if (name == "hotspot-churn") {
    PhaseSpec p = phase("hot-churn", 300, 40, 40, sc);
    p.keys.kind = KeyDist::kHotspot;
    p.keys.hot_fraction = 0.10;
    p.keys.hot_op_pct = 90;
    s.phases.push_back(p);
    s.churn.enabled = true;
    s.churn.interval_ms = scaled_ms(30, sc);
    s.mem_sample_every_ms = scaled_ms(10, sc);
    return s;
  }

  if (name == "moving-hotspot") {
    PhaseSpec burst = phase("write-burst", 200, 45, 45, sc);
    burst.keys.kind = KeyDist::kHotspot;
    burst.keys.hot_fraction = 0.05;
    burst.keys.hot_op_pct = 90;
    burst.keys.hot_move_every_ms = scaled_ms(25, sc);
    PhaseSpec read = phase("read-mostly", 200, 5, 5, sc);
    read.keys = burst.keys;
    s.phases.push_back(burst);
    s.phases.push_back(read);
    s.mem_sample_every_ms = scaled_ms(10, sc);
    return s;
  }

  if (name == "stall-recovery") {
    // Equal mixed phases; the victim parks for all of phase "stalled".
    // Zipfian keys keep old (pre-stall-born) nodes churning, which is
    // what an era-publishing stalled thread pins.
    const uint64_t warm = 150, stall = 250, recover = 250;
    for (auto [nm, dur] : {std::pair{"warmup", warm},
                           std::pair{"stalled", stall},
                           std::pair{"recovery", recover}}) {
      PhaseSpec p = phase(nm, dur, 30, 30, sc);
      p.keys.kind = KeyDist::kZipfian;
      p.keys.zipf_theta = 0.8;
      s.phases.push_back(p);
    }
    s.stall.enabled = true;
    s.stall.victim = 0;
    s.stall.park_after_ms = scaled_ms(warm, sc);
    s.stall.park_for_ms = scaled_ms(stall, sc);
    s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
    return s;
  }

  if (name == "sharded-uniform") {
    if (b.shards <= 0) s.shards = 4;
    s.phases.push_back(phase("mixed", 200, 30, 30, sc));
    return s;
  }

  if (name == "sharded-hotspot") {
    if (b.shards <= 0) s.shards = 4;
    PhaseSpec p = phase("zipf", 250, 30, 30, sc);
    // theta 0.99 (YCSB default): the top handful of keys carry most of
    // the mass, so whichever shards they hash to run hot while the rest
    // see background traffic — per-shard ops in the ServiceStats show it.
    p.keys.kind = KeyDist::kZipfian;
    p.keys.zipf_theta = 0.99;
    s.phases.push_back(p);
    s.mem_sample_every_ms = scaled_ms(10, sc);
    return s;
  }

  if (name == "kv-update-heavy") {
    // Put-replace is the reclamation traffic class set workloads never
    // exercise: most nodes die young (displaced while readers still hold
    // them). Phase 1 rewrites values hard; phase 2 reads them back with a
    // trickle of puts so reclamation keeps running against a get-heavy
    // mix.
    PhaseSpec rewrite = phase("put-heavy", 250, 5, 5, sc);
    rewrite.pct_put = 60;
    PhaseSpec readback = phase("get-heavy", 200, 0, 0, sc);
    readback.pct_put = 10;
    s.phases.push_back(rewrite);
    s.phases.push_back(readback);
    s.mem_sample_every_ms = scaled_ms(10, sc);
    return s;
  }

  if (name == "grow-churn") {
    // Under-provision by 64x: the resizable table must double its way up
    // ~6 times mid-run while the worker pool churns underneath it (a
    // descriptor CAS or cooperative bucket split can race a tid being
    // recycled). Prefill is skipped so the whole growth happens under
    // contention, not in the single-threaded fill loop.
    s.initial_capacity = std::max<uint64_t>(2, s.key_range / 64);
    s.prefill = 0;
    s.phases.push_back(phase("grow", 250, 70, 5, sc));
    s.phases.push_back(phase("churn-steady", 200, 25, 25, sc));
    s.churn.enabled = true;
    s.churn.interval_ms = scaled_ms(30, sc);
    s.mem_sample_every_ms = scaled_ms(10, sc);
    return s;
  }

  if (name == "resize-storm") {
    // Oscillate the population so an adaptive table grows AND shrinks:
    // every displaced bucket array is retired as one large Reclaimable,
    // and the victim parked through the drain pins a reservation while
    // those arrays flow through the batched sweep.
    s.initial_capacity = std::max<uint64_t>(2, s.key_range / 64);
    s.prefill = 0;
    const uint64_t fill = 200, drain = 200, refill = 150;
    s.phases.push_back(phase("fill", fill, 80, 0, sc));
    s.phases.push_back(phase("drain", drain, 0, 80, sc));
    s.phases.push_back(phase("refill", refill, 60, 10, sc));
    s.stall.enabled = true;
    s.stall.victim = 0;
    s.stall.park_after_ms = scaled_ms(fill, sc);
    s.stall.park_for_ms = scaled_ms(drain / 2, sc);
    s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
    return s;
  }

  if (name == "zombie-storm") {
    // Update-heavy traffic keeps every corpse's abandoned bracket armed
    // against live garbage; kills land every interval with respawns, so
    // the run sustains a rolling population of uncertified zombies. The
    // mem timeline shows each kill's backlog and the reaper's adoption.
    PhaseSpec p = phase("storm", 400, 35, 35, sc);
    s.phases.push_back(p);
    s.faults.thread_kill = true;
    s.faults.kill_zombie = true;
    s.faults.respawn = true;
    s.faults.kill_after_ms = scaled_ms(60, sc);
    s.faults.kill_every_ms = scaled_ms(60, sc);
    s.faults.kills = 4;
    // Reclaim passes are the reaper's only vehicle: a low threshold keeps
    // them frequent enough that certification (two stale heartbeat scans,
    // then the tgkill probe) lands inside the run even under sanitizers.
    s.smr_cfg.retire_threshold = 64;
    s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
    return s;
  }

  if (name == "pressure-backstop") {
    // Same shape as stall-recovery but with a pressure bound tight enough
    // that the parked victim pushes unreclaimed over it: the backstop
    // forces passes (visible as forced_handshakes / pressure_events) and
    // degrades to defer-and-warn until the victim resumes.
    const uint64_t warm = 120, stall = 220, recover = 200;
    for (auto [nm, dur] : {std::pair{"warmup", warm},
                           std::pair{"stalled", stall},
                           std::pair{"recovery", recover}}) {
      PhaseSpec p = phase(nm, dur, 30, 30, sc);
      s.phases.push_back(p);
    }
    s.stall.enabled = true;
    s.stall.victim = 0;
    s.stall.park_after_ms = scaled_ms(warm, sc);
    s.stall.park_for_ms = scaled_ms(stall, sc);
    // Bound well under a stalled run's organic backlog but above the
    // steady-state watermark (retire_threshold per worker).
    s.smr_cfg.pressure_bound =
        s.smr_cfg.retire_threshold * static_cast<uint64_t>(s.threads) * 2;
    s.mem_sample_every_ms = std::max<uint64_t>(1, scaled_ms(8, sc));
    return s;
  }

  if (name == "signal-loss") {
    // stall-recovery's shape with the loss injector eating every ping
    // aimed at the victim while it sleeps; delivery is restored when the
    // victim resumes, so the tail of the run measures recovery.
    s = *make_scenario("stall-recovery", b);
    s.name = name;
    s.faults.signal_loss = true;
    s.faults.signal_loss_pct = 100;
    s.faults.signal_loss_stop_after_ms =
        s.stall.park_after_ms + s.stall.park_for_ms;
    // A low threshold keeps retire backlogs crossing the POP trigger
    // during the park window even in slow sanitizer builds — without
    // waves there is nothing for the injector to eat or the watchdog to
    // time out.
    s.smr_cfg.retire_threshold = 64;
    // A lost ping wave must expire inside the window: the watchdog
    // deadline has to undercut the --short stall window (~60 ms) or the
    // victim resumes before it fires and the cell measures nothing.
    // Healthy waves are unaffected (the deadline arms lazily at the first
    // escalation).
    s.smr_cfg.ping_timeout_ms = 20;
    return s;
  }

  if (name == "oversubscribed-burst") {
    PhaseSpec burst = phase("write-burst", 200, 50, 50, sc);
    burst.threads = s.threads * 4;
    PhaseSpec read = phase("read-mostly", 150, 5, 5, sc);
    PhaseSpec drain = phase("drain", 150, 0, 60, sc);
    s.phases.push_back(burst);
    s.phases.push_back(read);
    s.phases.push_back(drain);
    s.mem_sample_every_ms = scaled_ms(10, sc);
    return s;
  }

  return std::nullopt;
}

}  // namespace pop::workload
