// Entry point of the scenario engine; see scenario.hpp for the
// vocabulary. Separate header so callers that only build specs (the
// named-scenario registry, the bench CLI) don't pull in the engine's
// dependencies.
#pragma once

#include <functional>

#include "workload/scenario.hpp"
#include "workload/scenarios.hpp"

namespace pop::workload {

// Executes the scenario: builds the (ds, smr) set, prefills, runs the
// phase schedule with churn/stall/sampling as specified, joins, and
// aggregates. Aborts on an unknown ds/smr name. This is the single
// worker-loop implementation every bench binary shares.
ScenarioResult run_scenario(const ScenarioSpec& spec);

// Runs every cell of `sweep` in order. Each cell is normalized first
// (adjustments go to stderr), so on_cell sees the spec that actually ran,
// its result, and its recovery_pct: 100 * metric / the reference cell's
// metric (sweep.metric, read from the last phase), or 0 without one.
void run_sweep(const Sweep& sweep,
               const std::function<void(const ScenarioSpec&,
                                        const ScenarioResult&, double)>&
                   on_cell);

}  // namespace pop::workload
