// Configuration and statistics shared by all reclamation schemes.
#pragma once

#include <cstdint>

namespace pop::smr {

struct SmrConfig {
  // Reservation slots per thread (the paper's MAX_HP). The bundled data
  // structures use at most 4.
  int num_slots = 8;

  // Retire-list length that triggers a reclamation pass (the paper's
  // reclaimFreq; 24K in the main experiments, 2K in Figure 4).
  uint64_t retire_threshold = 512;

  // Operations between global-epoch advances for the epoch-based schemes
  // (EBR, IBR, EpochPOP: epochFreq).
  uint64_t epoch_freq = 64;

  // EpochPOP's C: the POP fallback fires when the retire list reaches
  // C * retire_threshold despite EBR-mode reclamation.
  uint64_t pop_multiplier = 2;

  // Memory-pressure backstop: when the domain-wide unreclaimed count
  // (retired - freed) exceeds this bound, the next retire forces a
  // reclamation pass regardless of the normal cadence, then degrades to
  // defer-and-warn if the pass cannot relieve the pressure (a pinned
  // reservation can legitimately hold nodes). 0 = no bound.
  uint64_t pressure_bound = 0;

  // Publish-on-ping watchdog: a ping wave that has waited this long for a
  // laggard classifies it — a dead thread is certified and skipped, a live
  // one makes the wave time out and the pass defer. 0 = wait forever.
  // Generous: a healthy handshake completes in microseconds even under
  // sanitizers, so a second of silence means lost signals or a corpse —
  // and a spurious expiry merely defers one sweep (safe by construction).
  uint64_t ping_timeout_ms = 1000;
};

// Per-thread counters; aggregated into a snapshot for reporting. Plain
// u64s: each cell is written by its owning thread only (SWMR), torn reads
// by reporting threads at quiescence are benign.
struct ThreadStats {
  uint64_t retired = 0;
  uint64_t freed = 0;
  uint64_t scans = 0;            // reclamation passes
  uint64_t signals_sent = 0;     // pings issued as a reclaimer
  uint64_t pings_received = 0;   // handler executions
  uint64_t neutralized = 0;      // NBR restarts taken
  uint64_t ebr_frees = 0;        // EpochPOP: freed on the epoch fast path
  uint64_t pop_frees = 0;        // EpochPOP: freed via the POP fallback
  uint64_t max_retire_len = 0;   // high-watermark of the retire list
  uint64_t waves_timed_out = 0;  // handshakes abandoned at the deadline
  uint64_t tids_reaped = 0;      // dead tids certified + neutralized
  uint64_t orphans_adopted = 0;  // retired nodes adopted from dead tids
  uint64_t pressure_events = 0;  // unreclaimed crossed the pressure bound
  uint64_t forced_handshakes = 0;  // reclamation passes forced by pressure
};

// Totals over threads (a domain) or over snapshots (a sharded service):
// every counter sums, except max_retire_len, the max over threads.
struct StatsSnapshot : ThreadStats {
  uint64_t unreclaimed() const { return retired - freed; }

  // Takes a per-thread cell or another snapshot (the service layer rolls
  // one snapshot per shard into a total).
  void absorb(const ThreadStats& t) {
    retired += t.retired;
    freed += t.freed;
    scans += t.scans;
    signals_sent += t.signals_sent;
    pings_received += t.pings_received;
    neutralized += t.neutralized;
    ebr_frees += t.ebr_frees;
    pop_frees += t.pop_frees;
    if (t.max_retire_len > max_retire_len) max_retire_len = t.max_retire_len;
    waves_timed_out += t.waves_timed_out;
    tids_reaped += t.tids_reaped;
    orphans_adopted += t.orphans_adopted;
    pressure_events += t.pressure_events;
    forced_handshakes += t.forced_handshakes;
  }
};

}  // namespace pop::smr
