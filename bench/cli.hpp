// Shared command-line parsing for the bench binaries, layered UNDER the
// POPSMR_BENCH_* environment knobs for CI compatibility: each value flag
// seeds the corresponding env var only when that var is not already set,
// so `POPSMR_BENCH_THREADS=8 bench_x --threads 2` still runs 8 threads
// and existing CI recipes keep working unchanged.
//
//   --threads 1,2,4        -> POPSMR_BENCH_THREADS
//   --smr EBR,EpochPOP     -> POPSMR_BENCH_SMRS
//   --ds HML,HMHT          -> POPSMR_BENCH_DS
//   --shards 1,2,4,8       -> POPSMR_BENCH_SHARDS
//   --shard-hash modulo    -> POPSMR_SHARD_HASH
//   --duration-ms 200      -> POPSMR_BENCH_DURATION_MS
//   --json out.jsonl       -> POPSMR_BENCH_JSON
//   --latency              -> POPSMR_OBS_LATENCY=1 (per-op histograms)
//   --hw-counters          -> POPSMR_OBS_HW=1 (perf counters per phase)
//   --trace out.trace.json -> POPSMR_TRACE (Chrome trace dumped at exit)
//   --host 127.0.0.1       -> POPSMR_BENCH_HOST   (loadgen: remote server;
//                             popsmr_server: bind address)
//   --port 17979           -> POPSMR_BENCH_PORT   (0..65535; 0 = ephemeral)
//   --connections 4        -> POPSMR_BENCH_CONNECTIONS (loadgen)
//   --pipeline 8           -> POPSMR_BENCH_PIPELINE    (loadgen batch depth)
//   --net-workers 2        -> POPSMR_NET_WORKERS  (server epoll workers)
//   --scenario NAME|all    scenario or preset selection
//   --short                smoke mode: small key range, ~50 ms phases
//   --list                 list named scenarios and exit
//   --help                 usage and exit
//
// Unknown flags print usage and exit(2); binaries simply ignore the
// fields they don't consume. Identifier-valued flags (--scenario,
// --ds, --smr/--smrs, --shard-hash) are validated at parse time: names
// must match [A-Za-z0-9_-] (',' also allowed in list flags); anything
// else is diagnosed on one stderr line and rejected with exit(2) before
// it can leak into env vars, factory lookups, or JSONL string fields.
#pragma once

#include <string>

namespace pop::bench {

struct CliOptions {
  std::string scenario;  // empty = binary's default ("all" for scenarios)
  bool short_mode = false;
  bool list = false;
};

// Parses argv, seeds env knobs (without overriding), and returns the
// flags that are not env-backed. Exits on --help / parse errors.
CliOptions apply_bench_cli(int argc, char** argv);

}  // namespace pop::bench
