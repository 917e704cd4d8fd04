// Named scenario registry and sweep presets: everything bench_scenarios
// runs. A named scenario maps (ds, smr, threads, time scale) onto a full
// ScenarioSpec — the "scenario cookbook" in the README documents what
// each one stresses. A preset (the paper's figures and ablations, the kv
// put-ratio, resize deficit and crash-fault sweeps) is data that expands
// to the ordered list of cells its sweep runs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workload/scenario.hpp"

namespace pop::workload {

// Knobs a caller varies per matrix cell; everything else (phases, key
// distributions, churn/stall schedules) is the scenario's identity.
struct ScenarioBuild {
  std::string ds = "HML";
  std::string smr = "EpochPOP";
  int threads = 4;
  // Multiplies every phase duration (and derived intervals). CI's
  // scenario-smoke job (bench_scenarios --short) runs at 0.25 with a
  // shrunken key range.
  double time_scale = 1.0;
  // 0 = the scenario's own default range; smoke mode passes a small one.
  uint64_t key_range = 0;
  // Service-layer shard count for the sharded-* scenarios; 0 = the
  // scenario's own default (4 for sharded scenarios, 1 elsewhere).
  int shards = 0;
};

// Registry order is presentation order.
const std::vector<std::string>& scenario_names();

// Builds `name` for the given cell; nullopt for unknown names. The
// returned spec is already valid (normalize() would make no changes).
std::optional<ScenarioSpec> make_scenario(const std::string& name,
                                          const ScenarioBuild& build);

// One-line description per scenario or preset for --list and the
// cookbook.
std::string scenario_description(const std::string& name);

// ---- sweeps ---------------------------------------------------------------

// Presets in presentation order (figures, ablations, then the kv /
// resize / faults sweeps).
const std::vector<std::string>& preset_names();

// Axes a caller may override for every cell of a sweep; an empty list,
// 0 or empty string keeps the sweep's own value. An overridden ds list
// keeps the preset's cases for the named structures (in the given order)
// and adds a default-range case for any structure the preset lacks.
struct SweepAxes {
  std::vector<std::string> ds;
  std::vector<std::string> smrs;
  std::vector<int> threads;
  std::vector<int> shards;
  std::string shard_hash;
  // Per-phase length for presets; named scenarios keep their schedules.
  uint64_t duration_ms = 0;
  // Smoke mode: quarter-length phases, key ranges capped at 512.
  bool short_mode = false;
};

// What a reference ratio divides: the last phase's throughput, all ops
// or reads only.
enum class RefMetric { kMops, kReadMops };

struct SweepCell {
  ScenarioSpec spec;
  // Index of the cell this one is compared against (never after this
  // one; a reference cell points at itself); -1 = no reference.
  int ref = -1;
};

struct Sweep {
  std::vector<SweepCell> cells;
  RefMetric metric = RefMetric::kMops;
};

// Expands a named scenario (ds x threads x smr x shards) or a preset into
// its cells; nullopt for unknown names.
std::optional<Sweep> make_sweep(const std::string& name,
                                const SweepAxes& axes);

}  // namespace pop::workload
