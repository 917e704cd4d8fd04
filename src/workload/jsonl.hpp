// JSON Lines emission, the one row writer. A scenario run appends one
// "scenario" summary row per cell, one "phase" row per phase, one
// "mem_sample" row per timeline point, one "latency" row per recorded op
// kind and one "shard" row per shard; a bench_loadgen cell appends one
// "net" row and one "conn" row per connection. All go to the --json path
// of the bench binary — a `kind` field keeps the streams separable.
// Values are numbers and [A-Za-z0-9_-] identifiers only, so no string
// escaping is needed.
//
// Every row leads with the same stamp: `run_id` (process-wide, wall-clock
// ns at first use — monotonic across successive runs) and `ts` (per-row
// wall-clock ms), so concatenated multi-run CI artifacts stay
// disambiguable. Scenario/phase rows additionally carry the latency
// percentile columns (zero-filled when the latency channel was off) and
// the hardware-counter columns (hw_valid=0 when perf_event_open was
// refused).
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "service/service_stats.hpp"
#include "workload/scenario.hpp"

namespace pop::workload {

// Opens a row: kind tag plus the run_id/ts stamp, trailing comma.
inline void begin_row(std::FILE* f, const char* kind) {
  std::fprintf(f, "{\"kind\":\"%s\",\"run_id\":%llu,\"ts\":%llu,", kind,
               static_cast<unsigned long long>(obs::run_id()),
               static_cast<unsigned long long>(obs::wall_ts_ms()));
}

// The lat_* column block (trailing comma). All zeros when the channel was
// off — the columns are always present so downstream tooling never
// branches on schema.
inline void emit_latency_fields(std::FILE* f, const obs::LatencySummary& s) {
  std::fprintf(
      f,
      "\"lat_ops\":%llu,\"lat_p50_us\":%.3f,\"lat_p90_us\":%.3f,"
      "\"lat_p99_us\":%.3f,\"lat_p999_us\":%.3f,\"lat_max_us\":%.3f,",
      static_cast<unsigned long long>(s.count), s.p50_us, s.p90_us, s.p99_us,
      s.p999_us, s.max_us);
}

// The hardware-counter column block (trailing comma). llc_miss_rate is
// LLC misses per kilo-instruction.
inline void emit_hw_fields(std::FILE* f, const obs::HwSample& hw) {
  std::fprintf(f, "\"ipc\":%.4f,\"llc_miss_rate\":%.4f,\"hw_valid\":%d,",
               hw.ipc(), hw.llc_miss_rate(), hw.valid ? 1 : 0);
}

// One "latency" row per op/reclamation kind that recorded samples
// (get/put/insert/remove/ping_wave/sweep/reap): the per-kind percentile
// breakdown the scenario row's merged lat_* columns cannot show.
inline void emit_latency_rows(std::FILE* f, const ScenarioSpec& spec,
                              const ScenarioResult& r) {
  for (const auto& L : r.latency) {
    begin_row(f, "latency");
    std::fprintf(
        f,
        "\"scenario\":\"%s\",\"ds\":\"%s\",\"smr\":\"%s\",\"threads\":%d,"
        "\"shards\":%d,\"op\":\"%s\",\"count\":%llu,\"p50_us\":%.3f,"
        "\"p90_us\":%.3f,\"p99_us\":%.3f,\"p999_us\":%.3f,"
        "\"max_us\":%.3f}\n",
        spec.name.c_str(), spec.ds.c_str(), spec.smr.c_str(), spec.threads,
        spec.shards, L.op.c_str(),
        static_cast<unsigned long long>(L.lat.count), L.lat.p50_us,
        L.lat.p90_us, L.lat.p99_us, L.lat.p999_us, L.lat.max_us);
  }
}

// One "shard" row per shard of a sharded run (no-op for monolithic runs,
// whose ServiceStats stays empty): the per-shard routed-op count and
// domain counters that make a hot shard visible in the artifact — now
// including the fault-recovery counters (waves_timed_out, tids_reaped,
// pressure_events, forced_handshakes), which previously existed only on
// the monolithic roll-up and under-reported sharded fault runs.
inline void emit_shard_rows(std::FILE* f, const ScenarioSpec& spec,
                            const ScenarioResult& r) {
  for (const auto& s : r.service.shards) {
    begin_row(f, "shard");
    std::fprintf(
        f,
        "\"scenario\":\"%s\",\"ds\":\"%s\","
        "\"smr\":\"%s\",\"threads\":%d,\"shards\":%d,\"shard\":%d,"
        "\"ops\":%llu,\"retired\":%llu,\"freed\":%llu,"
        "\"unreclaimed\":%llu,\"signals_sent\":%llu,\"get_hits\":%llu,"
        "\"get_misses\":%llu,\"put_inserts\":%llu,\"put_replaces\":%llu,"
        "\"resizes\":%llu,\"buckets_final\":%llu,"
        "\"waves_timed_out\":%llu,\"tids_reaped\":%llu,"
        "\"pressure_events\":%llu,\"forced_handshakes\":%llu}\n",
        spec.name.c_str(), spec.ds.c_str(), spec.smr.c_str(), spec.threads,
        spec.shards, s.shard, static_cast<unsigned long long>(s.ops),
        static_cast<unsigned long long>(s.smr.retired),
        static_cast<unsigned long long>(s.smr.freed),
        static_cast<unsigned long long>(s.smr.unreclaimed()),
        static_cast<unsigned long long>(s.smr.signals_sent),
        static_cast<unsigned long long>(s.get_hits),
        static_cast<unsigned long long>(s.get_misses),
        static_cast<unsigned long long>(s.put_inserts),
        static_cast<unsigned long long>(s.put_replaces),
        static_cast<unsigned long long>(s.resizes),
        static_cast<unsigned long long>(s.buckets_final),
        static_cast<unsigned long long>(s.smr.waves_timed_out),
        static_cast<unsigned long long>(s.smr.tids_reaped),
        static_cast<unsigned long long>(s.smr.pressure_events),
        static_cast<unsigned long long>(s.smr.forced_handshakes));
  }
}

// Contract-sanitizer column, emitted only when the auditor was armed for
// the run: a green row then carries an explicit 0 ("checked and clean"),
// while unaudited runs omit the column entirely rather than writing a 0
// that would be indistinguishable from a clean audited run.
inline void emit_audit_fields(std::FILE* f, const ScenarioResult& r) {
  if (!r.audit_on) return;
  std::fprintf(f, "\"audit_violations\":%llu,",
               static_cast<unsigned long long>(r.audit_violations));
}

// The fault a cell injects, as the scenario row's `fault` column.
inline const char* fault_name(const ScenarioSpec& spec) {
  if (spec.faults.signal_loss) return "signal-loss";
  if (spec.faults.thread_kill) return "thread-kill";
  if (spec.smr_cfg.pressure_bound > 0) return "pressure";
  return "none";
}

// recovery_pct: the cell's metric as a percentage of its reference cell's
// (run_sweep computes it; 0 when the sweep has no reference).
inline void emit_scenario_jsonl(const std::string& path,
                                const ScenarioSpec& spec,
                                const ScenarioResult& r,
                                double recovery_pct) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  const char* nm = spec.name.c_str();
  const char* ds = spec.ds.c_str();
  const char* smr = spec.smr.c_str();
  const uint64_t capacity =
      spec.initial_capacity > 0 ? spec.initial_capacity : spec.key_range;
  const OpMix mix = spec.phases.empty()
                        ? OpMix{}
                        : static_cast<const OpMix&>(spec.phases[0]);
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };

  begin_row(f, "scenario");
  emit_audit_fields(f, r);
  emit_latency_fields(f, r.latency_all);
  emit_hw_fields(f, r.hw);
  std::fprintf(
      f,
      "\"scenario\":\"%s\",\"ds\":\"%s\","
      "\"smr\":\"%s\",\"threads\":%d,\"shards\":%d,\"shard_hash\":\"%s\","
      "\"key_range\":%llu,\"initial_capacity\":%llu,\"deficit\":%llu,"
      "\"pct_insert\":%u,\"pct_erase\":%u,\"pct_put\":%u,"
      "\"retire_threshold\":%llu,\"epoch_freq\":%llu,"
      "\"pop_multiplier\":%llu,\"pressure_bound\":%llu,"
      "\"seconds\":%.6f,\"mops\":%.6f,\"read_mops\":%.6f,"
      "\"recovery_pct\":%.2f,\"retired\":%llu,\"freed\":%llu,"
      "\"signals_sent\":%llu,\"vm_hwm_kib\":%llu,\"churn_cycles\":%llu,"
      "\"baseline_unreclaimed\":%llu,\"stall_peak_unreclaimed\":%llu,"
      "\"final_unreclaimed\":%llu,\"stall_parked_at_ms\":%llu,"
      "\"stall_resumed_at_ms\":%llu,\"fault\":\"%s\",\"kills\":%llu,"
      "\"signals_suppressed\":%llu,\"first_kill_at_ms\":%llu,"
      "\"recovered_at_ms\":%llu,\"waves_timed_out\":%llu,"
      "\"tids_reaped\":%llu,\"orphans_adopted\":%llu,"
      "\"pressure_events\":%llu,\"forced_handshakes\":%llu,"
      "\"grows\":%llu,\"shrinks\":%llu,\"buckets_final\":%llu,"
      "\"pool_live_blocks\":%llu,\"shard_ops_max\":%llu,"
      "\"shard_ops_min\":%llu,\"gets\":%llu,\"get_hits\":%llu,"
      "\"inserts\":%llu,\"erases\":%llu,\"puts\":%llu,"
      "\"put_replaced\":%llu,\"rw_violations\":%llu}\n",
      nm, ds, smr, spec.threads, spec.shards, spec.shard_hash.c_str(),
      u(spec.key_range), u(capacity),
      u(capacity > 0 ? spec.key_range / capacity : 1),
      mix.pct_insert, mix.pct_erase, mix.pct_put,
      u(spec.smr_cfg.retire_threshold), u(spec.smr_cfg.epoch_freq),
      u(spec.smr_cfg.pop_multiplier), u(spec.smr_cfg.pressure_bound),
      r.seconds, r.mops, r.read_mops, recovery_pct, u(r.smr.retired),
      u(r.smr.freed), u(r.smr.signals_sent), u(r.vm_hwm_kib),
      u(r.churn_cycles), u(r.baseline_unreclaimed),
      u(r.stall_peak_unreclaimed), u(r.final_unreclaimed),
      u(r.stall_parked_at_ms), u(r.stall_resumed_at_ms), fault_name(spec),
      u(r.kills), u(r.signals_suppressed), u(r.first_kill_at_ms),
      u(r.recovered_at_ms), u(r.smr.waves_timed_out), u(r.smr.tids_reaped),
      u(r.smr.orphans_adopted), u(r.smr.pressure_events),
      u(r.smr.forced_handshakes), u(r.grows), u(r.shrinks),
      u(r.buckets_final), u(r.service.pool_live_blocks),
      u(r.service.ops_max_shard()), u(r.service.ops_min_shard()), u(r.gets),
      u(r.get_hits), u(r.inserts), u(r.erases), u(r.puts),
      u(r.put_replaced), u(r.rw_violations));

  for (size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseResult& p = r.phases[i];
    begin_row(f, "phase");
    emit_latency_fields(f, p.latency);
    emit_hw_fields(f, p.hw);
    std::fprintf(
        f,
        "\"cycles\":%llu,\"instructions\":%llu,\"llc_misses\":%llu,"
        "\"ctx_switches\":%llu,"
        "\"scenario\":\"%s\",\"ds\":\"%s\","
        "\"smr\":\"%s\",\"phase\":\"%s\",\"idx\":%zu,\"threads\":%d,"
        "\"seconds\":%.6f,\"mops\":%.6f,\"read_mops\":%.6f,"
        "\"retired\":%llu,\"freed\":%llu,\"signals_sent\":%llu,"
        "\"pings\":%llu,\"neutralized\":%llu,\"max_retire_len\":%llu,"
        "\"unreclaimed_end\":%llu,\"gets\":%llu,\"get_hits\":%llu,"
        "\"inserts\":%llu,\"erases\":%llu,\"puts\":%llu,"
        "\"put_replaced\":%llu,\"rw_violations\":%llu}\n",
        static_cast<unsigned long long>(p.hw.cycles),
        static_cast<unsigned long long>(p.hw.instructions),
        static_cast<unsigned long long>(p.hw.llc_misses),
        static_cast<unsigned long long>(p.hw.ctx_switches),
        nm, ds, smr, p.name.c_str(), i, p.threads, p.seconds, p.mops,
        p.read_mops, static_cast<unsigned long long>(p.smr_delta.retired),
        static_cast<unsigned long long>(p.smr_delta.freed),
        static_cast<unsigned long long>(p.smr_delta.signals_sent),
        static_cast<unsigned long long>(p.smr_delta.pings_received),
        static_cast<unsigned long long>(p.smr_delta.neutralized),
        static_cast<unsigned long long>(p.smr_delta.max_retire_len),
        static_cast<unsigned long long>(p.unreclaimed_end),
        static_cast<unsigned long long>(p.gets),
        static_cast<unsigned long long>(p.get_hits),
        static_cast<unsigned long long>(p.inserts),
        static_cast<unsigned long long>(p.erases),
        static_cast<unsigned long long>(p.puts),
        static_cast<unsigned long long>(p.put_replaced),
        static_cast<unsigned long long>(p.rw_violations));
  }

  for (const MemSample& m : r.samples) {
    begin_row(f, "mem_sample");
    std::fprintf(
        f,
        "\"scenario\":\"%s\",\"ds\":\"%s\","
        "\"smr\":\"%s\",\"t_ms\":%llu,\"phase\":%d,\"vm_rss_kib\":%llu,"
        "\"vm_hwm_kib\":%llu,\"unreclaimed\":%llu,\"pool_live_blocks\":%llu,"
        "\"victim_parked\":%d}\n",
        nm, ds, smr, static_cast<unsigned long long>(m.t_ms), m.phase,
        static_cast<unsigned long long>(m.vm_rss_kib),
        static_cast<unsigned long long>(m.vm_hwm_kib),
        static_cast<unsigned long long>(m.unreclaimed()),
        static_cast<unsigned long long>(
            m.pool_freed > m.pool_allocated ? 0
                                            : m.pool_allocated - m.pool_freed),
        m.victim_parked ? 1 : 0);
  }

  emit_latency_rows(f, spec, r);
  emit_shard_rows(f, spec, r);
  std::fclose(f);
}

// The wire-op counter block of the "net" and "conn" rows (trailing comma).
inline void emit_net_counter_fields(std::FILE* f,
                                    const service::ConnectionStats& s) {
  std::fprintf(
      f,
      "\"ops\":%llu,\"gets\":%llu,\"get_hits\":%llu,\"puts\":%llu,"
      "\"put_replaced\":%llu,\"dels\":%llu,\"del_hits\":%llu,"
      "\"pings\":%llu,\"errors\":%llu,",
      static_cast<unsigned long long>(s.ops),
      static_cast<unsigned long long>(s.gets),
      static_cast<unsigned long long>(s.get_hits),
      static_cast<unsigned long long>(s.puts),
      static_cast<unsigned long long>(s.put_replaced),
      static_cast<unsigned long long>(s.dels),
      static_cast<unsigned long long>(s.del_hits),
      static_cast<unsigned long long>(s.pings),
      static_cast<unsigned long long>(s.protocol_errors));
}

// A bench_loadgen cell replays `spec` over the wire, one connection per
// spec thread. Its "net" row carries the op outcomes summed over the
// connections (`totals`), the client-side latency of every request and
// the server's epoll `workers` as its `threads` column; then one "conn"
// row per connection (its counters and latency).
inline void emit_net_jsonl(
    const std::string& path, const ScenarioSpec& spec, int workers,
    int pipeline_depth, double seconds,
    const service::ConnectionStats& totals, const obs::LatencySummary& latency,
    const std::vector<std::pair<service::ConnectionStats,
                                obs::LatencySummary>>& conns) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  const char* nm = spec.name.c_str();
  const char* ds = spec.ds.c_str();
  const char* smr = spec.smr.c_str();

  begin_row(f, "net");
  emit_latency_fields(f, latency);
  emit_net_counter_fields(f, totals);
  const double mops =
      seconds > 0.0 ? static_cast<double>(totals.ops) / seconds / 1e6 : 0.0;
  std::fprintf(
      f,
      "\"scenario\":\"%s\",\"ds\":\"%s\",\"smr\":\"%s\",\"threads\":%d,"
      "\"shards\":%d,\"connections\":%d,\"pipeline_depth\":%d,"
      "\"seconds\":%.6f,\"mops\":%.6f}\n",
      nm, ds, smr, workers, spec.shards, spec.threads, pipeline_depth,
      seconds, mops);

  for (const auto& [stats, lat] : conns) {
    begin_row(f, "conn");
    emit_net_counter_fields(f, stats);
    std::fprintf(
        f,
        "\"scenario\":\"%s\",\"ds\":\"%s\",\"smr\":\"%s\",\"conn\":%llu,"
        "\"connections\":%d,\"pipeline_depth\":%d,\"p50_us\":%.3f,"
        "\"p90_us\":%.3f,\"p99_us\":%.3f,\"p999_us\":%.3f,"
        "\"max_us\":%.3f}\n",
        nm, ds, smr, static_cast<unsigned long long>(stats.conn_id),
        spec.threads, pipeline_depth, lat.p50_us, lat.p90_us, lat.p99_us,
        lat.p999_us, lat.max_us);
  }
  std::fclose(f);
}

}  // namespace pop::workload
