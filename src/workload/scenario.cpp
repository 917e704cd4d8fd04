#include "workload/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "runtime/thread_registry.hpp"
#include "service/sharded_map.hpp"

namespace pop::workload {

namespace {

// Worker slots available to one scenario: leave registry headroom for the
// coordinating thread, the sampler, and whatever test harness spawned us.
constexpr int kMaxScenarioThreads = runtime::kMaxThreads - 8;

template <class... Args>
void warn(std::vector<std::string>& out, const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out.emplace_back(buf);
}

}  // namespace

std::vector<std::string> normalize(ScenarioSpec& spec) {
  std::vector<std::string> w;

  if (spec.phases.empty()) spec.phases.emplace_back();

  if (spec.threads < 1) {
    warn(w, "threads %d < 1: clamped to 1", spec.threads);
    spec.threads = 1;
  }
  if (spec.threads > kMaxScenarioThreads) {
    warn(w, "threads %d exceeds the registry budget: clamped to %d",
         spec.threads, kMaxScenarioThreads);
    spec.threads = kMaxScenarioThreads;
  }
  if (spec.key_range < 2) {
    warn(w, "key_range %llu < 2: clamped to 2",
         static_cast<unsigned long long>(spec.key_range));
    spec.key_range = 2;
  }
  if (spec.shards < 1) {
    warn(w, "shards %d < 1: clamped to 1", spec.shards);
    spec.shards = 1;
  }
  if (static_cast<uint64_t>(spec.shards) > spec.key_range) {
    warn(w, "shards %d exceeds key_range %llu: clamped to the key range",
         spec.shards, static_cast<unsigned long long>(spec.key_range));
    spec.shards = static_cast<int>(spec.key_range);
  }
  {
    service::ShardHash h;
    if (!service::parse_shard_hash(spec.shard_hash, &h)) {
      warn(w, "unknown shard_hash '%s': reset to splitmix",
           spec.shard_hash.c_str());
      spec.shard_hash = "splitmix";
    }
  }
  // The fill loops can insert at most key_range distinct keys; a larger
  // ask used to be silently under-delivered by the odd-key loop.
  if (prefill_keys(spec) > spec.key_range) {
    warn(w, "prefill %llu > key_range %llu: clamped to the key range",
         static_cast<unsigned long long>(spec.prefill),
         static_cast<unsigned long long>(spec.key_range));
    spec.prefill = spec.key_range;
  }

  for (size_t i = 0; i < spec.phases.size(); ++i) {
    PhaseSpec& p = spec.phases[i];
    if (p.name.empty()) p.name = "phase" + std::to_string(i);
    if (p.threads == 0) p.threads = spec.threads;
    if (p.threads < 1) {
      warn(w, "phase '%s': threads %d < 1: clamped to 1", p.name.c_str(),
           p.threads);
      p.threads = 1;
    }
    if (p.threads > kMaxScenarioThreads) {
      warn(w, "phase '%s': threads %d exceeds the registry budget: "
              "clamped to %d",
           p.name.c_str(), p.threads, kMaxScenarioThreads);
      p.threads = kMaxScenarioThreads;
    }
    if (p.duration_ms == 0) {
      warn(w, "phase '%s': duration 0 ms: clamped to 1 ms", p.name.c_str());
      p.duration_ms = 1;
    }
    if (p.pct_insert > 100) {
      warn(w, "phase '%s': pct_insert %u > 100: clamped", p.name.c_str(),
           p.pct_insert);
      p.pct_insert = 100;
    }
    // This used to wrap the dice comparison: an 80/80 mix made erase win
    // the range [80, 160) of a [0, 100) roll — i.e. silently became
    // 80/20 with no contains at all.
    if (p.pct_insert + p.pct_erase > 100) {
      warn(w, "phase '%s': pct_insert %u + pct_erase %u > 100: "
              "pct_erase clamped to %u",
           p.name.c_str(), p.pct_insert, p.pct_erase, 100 - p.pct_insert);
      p.pct_erase = 100 - p.pct_insert;
    }
    if (p.pct_insert + p.pct_erase + p.pct_put > 100) {
      warn(w, "phase '%s': pct_insert %u + pct_erase %u + pct_put %u > 100: "
              "pct_put clamped to %u",
           p.name.c_str(), p.pct_insert, p.pct_erase, p.pct_put,
           100 - p.pct_insert - p.pct_erase);
      p.pct_put = 100 - p.pct_insert - p.pct_erase;
    }
    if (p.read_your_writes && p.split_readers_writers) {
      warn(w, "phase '%s': read_your_writes is incompatible with "
              "split_readers_writers (roles share keys): validation off",
           p.name.c_str());
      p.read_your_writes = false;
    }
    if (p.read_your_writes &&
        spec.key_range < static_cast<uint64_t>(p.threads)) {
      warn(w, "phase '%s': read_your_writes needs key_range >= threads for "
              "worker-private key stripes: validation off",
           p.name.c_str());
      p.read_your_writes = false;
    }
    // The checker keeps a dense per-worker ledger of key_range u64s;
    // beyond this bound that is gigabytes per worker, not validation.
    constexpr uint64_t kMaxRwKeyRange = 1ull << 22;
    if (p.read_your_writes && spec.key_range > kMaxRwKeyRange) {
      warn(w, "phase '%s': read_your_writes over key_range %llu would "
              "allocate a %llu MiB ledger per worker: validation off "
              "(max key_range %llu)",
           p.name.c_str(), static_cast<unsigned long long>(spec.key_range),
           static_cast<unsigned long long>(spec.key_range * 8 >> 20),
           static_cast<unsigned long long>(kMaxRwKeyRange));
      p.read_your_writes = false;
    }
    if (p.writer_key_range == 0) p.writer_key_range = 1;
    if (p.writer_key_range > spec.key_range) {
      warn(w, "phase '%s': writer_key_range clamped to key_range",
           p.name.c_str());
      p.writer_key_range = spec.key_range;
    }
    if (p.split_readers_writers && p.keys.kind != KeyDist::kUniform) {
      warn(w, "phase '%s': split_readers_writers ignores the key "
              "distribution (readers scan uniformly, writers hit "
              "[0, writer_key_range)); keys reset to uniform",
           p.name.c_str());
      p.keys = KeyDistSpec{};
    }

    KeyDistSpec& k = p.keys;
    if (k.kind == KeyDist::kZipfian && !(k.zipf_theta >= 0.0)) {
      warn(w, "phase '%s': zipf_theta %.3f < 0: clamped to 0 (uniform)",
           p.name.c_str(), k.zipf_theta);
      k.zipf_theta = 0.0;
    }
    if (k.kind == KeyDist::kHotspot) {
      if (!(k.hot_fraction > 0.0) || k.hot_fraction > 1.0) {
        warn(w, "phase '%s': hot_fraction %.3f outside (0, 1]: reset to 0.1",
             p.name.c_str(), k.hot_fraction);
        k.hot_fraction = 0.1;
      }
      if (k.hot_op_pct > 100) {
        warn(w, "phase '%s': hot_op_pct %u > 100: clamped", p.name.c_str(),
             k.hot_op_pct);
        k.hot_op_pct = 100;
      }
    }
  }

  // Read-your-writes keys are striped by (key mod active threads), so
  // the stripe map must be identical for every phase — otherwise a key
  // can migrate between workers at a phase boundary and a stale ledger
  // reports a false violation. Require a uniform all-RW schedule.
  {
    bool any_rw = false;
    for (const auto& p : spec.phases) any_rw |= p.read_your_writes;
    if (any_rw) {
      bool uniform = true;
      for (const auto& p : spec.phases) {
        uniform &= p.read_your_writes && p.threads == spec.phases[0].threads;
      }
      if (!uniform) {
        warn(w, "read_your_writes requires every phase to validate with the "
                "same thread count (worker-private key stripes must not "
                "move): validation off");
        for (auto& p : spec.phases) p.read_your_writes = false;
      }
    }
  }

  if (spec.churn.enabled && spec.churn.interval_ms == 0) {
    warn(w, "churn interval 0 ms: clamped to 1 ms");
    spec.churn.interval_ms = 1;
  }

  if (spec.stall.enabled) {
    const int max_threads =
        std::max_element(spec.phases.begin(), spec.phases.end(),
                         [](const PhaseSpec& a, const PhaseSpec& b) {
                           return a.threads < b.threads;
                         })
            ->threads;
    if (spec.stall.victim < 0 || spec.stall.victim >= max_threads) {
      warn(w, "stall victim %d outside the worker pool [0, %d): reset to 0",
           spec.stall.victim, max_threads);
      spec.stall.victim = 0;
    }
    if (spec.stall.park_for_ms == 0) {
      warn(w, "stall park_for 0 ms: clamped to 1 ms");
      spec.stall.park_for_ms = 1;
    }
  }

  FaultSpec& f = spec.faults;
  if (f.signal_loss) {
    if (f.signal_loss_pct < 1 || f.signal_loss_pct > 100) {
      warn(w, "signal_loss_pct %d outside [1, 100]: reset to 100",
           f.signal_loss_pct);
      f.signal_loss_pct = 100;
    }
  }
  if (f.thread_kill) {
    const int max_threads =
        std::max_element(spec.phases.begin(), spec.phases.end(),
                         [](const PhaseSpec& a, const PhaseSpec& b) {
                           return a.threads < b.threads;
                         })
            ->threads;
    if (f.kills < 1) {
      warn(w, "thread_kill with kills %d < 1: clamped to 1", f.kills);
      f.kills = 1;
    }
    // Without respawn each kill permanently empties a slot; leave at
    // least one worker alive (the stall victim is also never killed).
    const int pool = max_threads - (spec.stall.enabled ? 1 : 0);
    if (!f.respawn && f.kills >= pool) {
      warn(w, "thread_kill without respawn would kill the whole worker "
              "pool: kills clamped to %d",
           pool - 1 > 0 ? pool - 1 : 1);
      f.kills = pool - 1 > 0 ? pool - 1 : 1;
    }
    if (f.kill_every_ms == 0 && f.kills > 1) {
      warn(w, "thread_kill kills %d with kill_every 0 ms: interval set to "
              "10 ms",
           f.kills);
      f.kill_every_ms = 10;
    }
    // A zombie leaks its registry slot for good until certified; bound
    // the storm so a scheme with no reap site (NR) cannot exhaust the
    // registry across a bench sweep.
    const int kill_budget = runtime::kMaxThreads / 4;
    if (f.kill_zombie && f.kills > kill_budget) {
      warn(w, "kill_zombie kills %d would risk exhausting the registry: "
              "clamped to %d",
           f.kills, kill_budget);
      f.kills = kill_budget;
    }
  }

  return w;
}

}  // namespace pop::workload
