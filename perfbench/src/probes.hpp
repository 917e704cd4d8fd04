// Per-layer micro-probes: each times one public popsmr entry point in a
// tight loop on the calling thread (plus helper threads where the entry
// point needs peers) and reports the median over a few repetitions. The
// traced run calls them; every repetition is recorded as one span.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Fills `out` with, by metric name:
//   runtime.heartbeat_bump_ns, runtime.alloc_free_ns,
//   runtime.free_batch_ns_per_block,
//   smr.bracket_ns.S, smr.protect_ns.S, smr.retire_free_ns.S (S per scheme),
//   core.ping_wave_us.p50, core.ping_wave_us.p99,
//   service.batch_bracket_ns.
void run_probes(const std::vector<std::string>& schemes,
                std::map<std::string, double>* out);

}  // namespace perfbench
