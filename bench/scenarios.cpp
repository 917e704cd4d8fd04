// bench_scenarios: the in-process benchmark. Runs a named scenario —
// skewed, phased, churning, stalling, sharded or faulty workloads — or a
// preset: the paper's figures and ablations and the kv put-ratio, resize
// deficit and crash-fault sweeps (src/workload/scenarios.cpp holds them
// as data). Each cell prints one line per phase and, with --json set,
// appends its kind-tagged JSON Lines: one "scenario" summary, one "phase"
// row per phase, one "mem_sample" row per timeline point, plus "latency"
// and "shard" rows when recorded.
//
//   bench_scenarios --list
//   bench_scenarios --scenario fig2 --smr EBR,EpochPOP --threads 2
//   bench_scenarios --scenario stall-recovery --ds HML --threads 4
//   bench_scenarios --scenario sharded-uniform --shards 1,2,4,8 --threads 8
//   bench_scenarios --scenario all --short        # every named scenario
//
// --ds/--smr/--threads/--shards/--shard-hash/--duration-ms override the
// sweep's own lists (SweepAxes in workload/scenarios.hpp); --short runs
// quarter-length phases over key ranges capped at 512.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli.hpp"
#include "workload/jsonl.hpp"
#include "workload/scenario_engine.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace pop;
using namespace pop::bench;
using namespace pop::workload;

void print_header(const std::string& name) {
  std::printf("\n# %s: %s\n", name.c_str(), scenario_description(name).c_str());
  std::printf("%-5s %7s %3s %6s %-13s %-12s %-12s %8s %9s %11s %9s %9s "
              "%11s %10s %7s\n",
              "ds", "keys", "thr", "shards", "smr", "rt/C/ef", "phase",
              "Mops", "readMops", "unreclaimed", "maxRetire", "signals",
              "neutralized", "VmHWM(KiB)", "ref%");
  std::fflush(stdout);
}

void print_cell(const ScenarioSpec& spec, const ScenarioResult& r,
                double recovery_pct) {
  const std::string cfg = std::to_string(spec.smr_cfg.retire_threshold) +
                          "/" + std::to_string(spec.smr_cfg.pop_multiplier) +
                          "/" + std::to_string(spec.smr_cfg.epoch_freq);
  // recovery_pct compares last phases, so only the last line carries it.
  for (const auto& p : r.phases) {
    const bool last = &p == &r.phases.back();
    std::printf("%-5s %7llu %3d %6d %-13s %-12s %-12s %8.3f %9.3f %11llu "
                "%9llu %9llu %11llu %10llu %7.1f\n",
                spec.ds.c_str(),
                static_cast<unsigned long long>(spec.key_range), p.threads,
                spec.shards, spec.smr.c_str(), cfg.c_str(), p.name.c_str(),
                p.mops, p.read_mops,
                static_cast<unsigned long long>(p.unreclaimed_end),
                static_cast<unsigned long long>(p.smr_delta.max_retire_len),
                static_cast<unsigned long long>(p.smr_delta.signals_sent),
                static_cast<unsigned long long>(p.smr_delta.neutralized),
                static_cast<unsigned long long>(r.vm_hwm_kib),
                last ? recovery_pct : 0.0);
  }
  if (spec.stall.enabled) {
    std::printf("      %-13s stall: baseline %llu -> peak %llu -> final %llu "
                "unreclaimed (parked %llu..%llu ms, %zu samples)\n",
                spec.smr.c_str(),
                static_cast<unsigned long long>(r.baseline_unreclaimed),
                static_cast<unsigned long long>(r.stall_peak_unreclaimed),
                static_cast<unsigned long long>(r.final_unreclaimed),
                static_cast<unsigned long long>(r.stall_parked_at_ms),
                static_cast<unsigned long long>(r.stall_resumed_at_ms),
                r.samples.size());
  }
  if (std::strcmp(fault_name(spec), "none") != 0) {
    std::printf("      %-13s fault %s: kills %llu reaped %llu adopted %llu "
                "wavesTO %llu suppressed %llu pressure %llu forced %llu "
                "recovered@%llu ms\n",
                spec.smr.c_str(), fault_name(spec),
                static_cast<unsigned long long>(r.kills),
                static_cast<unsigned long long>(r.smr.tids_reaped),
                static_cast<unsigned long long>(r.smr.orphans_adopted),
                static_cast<unsigned long long>(r.smr.waves_timed_out),
                static_cast<unsigned long long>(r.signals_suppressed),
                static_cast<unsigned long long>(r.smr.pressure_events),
                static_cast<unsigned long long>(r.smr.forced_handshakes),
                static_cast<unsigned long long>(r.recovered_at_ms));
  }
  // Per-kind latency percentiles when --latency recorded anything
  // (reclamation kinds included).
  for (const auto& L : r.latency) {
    std::printf("      %-13s lat %-9s n=%-9llu p50=%.1fus p90=%.1fus "
                "p99=%.1fus p999=%.1fus max=%.1fus\n",
                spec.smr.c_str(), L.op.c_str(),
                static_cast<unsigned long long>(L.lat.count), L.lat.p50_us,
                L.lat.p90_us, L.lat.p99_us, L.lat.p999_us, L.lat.max_us);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = apply_bench_cli(argc, argv);

  if (opts.list) {
    for (const auto* names : {&scenario_names(), &preset_names()}) {
      for (const auto& name : *names) {
        std::printf("%-26s %s\n", name.c_str(),
                    scenario_description(name).c_str());
      }
    }
    return 0;
  }

  std::vector<std::string> selected;
  if (opts.scenario.empty() || opts.scenario == "all") {
    selected = scenario_names();
  } else {
    selected.push_back(opts.scenario);
  }
  for (const auto& name : selected) {
    const auto sweep = make_sweep(name, opts.axes);
    if (!sweep) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                   name.c_str());
      return 2;
    }
    print_header(name);
    run_sweep(*sweep, [&](const ScenarioSpec& spec, const ScenarioResult& r,
                          double recovery_pct) {
      print_cell(spec, r, recovery_pct);
      emit_scenario_jsonl(opts.json, spec, r, recovery_pct);
    });
  }
  return 0;
}
