// Shared POPSMR_BENCH_* knob readers for the bench binaries. The in-process
// benchmark is bench_scenarios: every paper figure and ablation is a
// preset in src/workload/scenarios.cpp that expands to ScenarioSpec cells
// the scenario engine runs, and src/workload/jsonl.hpp writes their rows.
// bench/cli.hpp layers --flags over these knobs (an exported var wins):
//   POPSMR_BENCH_DURATION_MS  per-phase duration of a preset's cells
//   POPSMR_BENCH_THREADS      comma list, e.g. "1,2,4"
//   POPSMR_BENCH_SMRS         comma list of scheme names
//   POPSMR_BENCH_DS           comma list of data structures
//   POPSMR_BENCH_SHARDS       comma list of shard counts
//   POPSMR_SHARD_HASH         splitmix | modulo
//   POPSMR_BENCH_JSON         path; every cell appends its JSON Lines rows
//                             (the BENCH_*.json perf-trajectory rail)
//   POPSMR_OBS_LATENCY        1 = record per-op latency histograms (--latency)
//   POPSMR_OBS_HW             1 = per-phase perf counters (--hw-counters)
//   POPSMR_TRACE              path; arm the event tracer and dump a Chrome
//                             trace-event JSON at exit (--trace PATH)
//   POPSMR_TRACE_RING         per-thread ring capacity in events (def. 8192)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pop::bench {

// The list knobs return `fallback` parsed when the variable is unset; an
// empty fallback then yields an empty list ("the sweep's own default").
std::vector<int> bench_thread_list(const std::string& fallback);
// Every scheme when POPSMR_BENCH_SMRS is unset.
std::vector<std::string> bench_smr_list();
std::vector<std::string> bench_ds_list(const std::string& fallback);
std::vector<int> bench_shard_list(const std::string& fallback);
uint64_t bench_duration_ms(uint64_t fallback);

// ---- networked front-end knobs (bench_loadgen / popsmr_server) ------------
// POPSMR_BENCH_HOST / POPSMR_BENCH_PORT: where the loadgen connects (and
// where popsmr_server binds). Env wins over the --host/--port flags like
// every other knob; a malformed env value (bad charset, port out of
// [0, 65535]) is diagnosed on one stderr line and replaced by `fallback`
// — it must not leak into connect() or a JSONL label. An empty-string
// host fallback means "no remote server" (the loadgen spawns in-process).
std::string bench_host(const std::string& fallback);
int bench_port(int fallback);
// POPSMR_BENCH_CONNECTIONS / POPSMR_BENCH_PIPELINE / POPSMR_NET_WORKERS:
// loadgen connection count, pipelined batch depth, and server epoll
// worker count. Non-numeric or non-positive values fall back.
int bench_connections(int fallback);
int bench_pipeline(int fallback);
int bench_net_workers(int fallback);

}  // namespace pop::bench
