// Command-line parsing shared by the bench binaries: every bench knob is
// a flag, read once, here. apply_bench_cli parses argv into BenchOptions;
// binaries read the fields they consume and ignore the rest.
//
//   --threads 1,2,4        thread counts
//   --smr EBR,EpochPOP     scheme names
//   --ds HML,HMHT          data structures
//   --shards 1,2,4,8       shard counts
//   --shard-hash modulo    splitmix | modulo
//   --duration-ms 200      per-phase length of a preset's cells
//   --json out.jsonl       append the kind-tagged JSON Lines rows here
//   --latency              record per-op latency histograms
//   --hw-counters          per-phase perf counters
//   --trace out.trace.json arm the event tracer; Chrome trace dumped at exit
//   --host 127.0.0.1       loadgen: remote server; popsmr_server: bind address
//   --port 17979           0..65535; 0 = ephemeral
//   --connections 4        loadgen connections
//   --pipeline 8           loadgen batch depth
//   --net-workers 2        server epoll workers
//   --scenario NAME|all    scenario or preset selection
//   --short                smoke mode: small key range, quarter-length phases
//   --list                 list named scenarios and exit
//   --help                 usage and exit
//
// Every value is checked at parse time: integers (list entries included)
// are digits within the flag's bounds, names match [A-Za-z0-9_-] (','
// separates list entries), hosts add '.'. A malformed value or an unknown
// flag is diagnosed on one stderr line and exits 2, before it can reach a
// sweep, a factory lookup, connect() or a JSONL string field.
#pragma once

#include <string>

#include "workload/scenarios.hpp"

namespace pop::bench {

struct BenchOptions {
  // --ds/--smr/--threads/--shards/--shard-hash/--duration-ms/--short. An
  // absent list (or 0 / "") keeps the sweep's own default.
  workload::SweepAxes axes;
  std::string json;  // empty = no JSONL rows
  // Networked pair. An empty host means "no remote server" for the
  // loadgen (it spawns one in-process) and 127.0.0.1 for popsmr_server.
  std::string host;
  int port = 17979;
  int connections = 4;
  int pipeline = 8;
  int net_workers = 2;
  std::string scenario;  // empty = binary's default ("all" for scenarios)
  bool list = false;
  // Observability channels, already switched on when set.
  bool latency = false;
  bool hw_counters = false;
  std::string trace;  // Chrome trace path; empty = no trace flag
};

// Parses argv and switches on the requested observability channels.
// Exits 0 on --help and 2 on an unknown flag or a malformed value.
BenchOptions apply_bench_cli(int argc, char** argv);

}  // namespace pop::bench
