// perfbench: popsmr's benchmark, one workload per invocation.
//
//   perfbench --workload read-traverse|write-stall|wire-kv --seed N
//             --seconds S --trace 0|1 [--out DIR] [--seeded-wrong]
//
// A run is a sequence of rounds until --seconds is spent. Every round
// builds fresh maps and runs, back to back, one in-process window per
// reclamation scheme (EBR, HP, HazardPtrPOP, EpochPOP; the starting
// scheme rotates every round) and then one wire window against an
// in-process NetServer. Interleaving the schemes inside a round means
// co-tenant drift hits all four alike; every metric is a median over
// rounds. In-process windows are bounded by a fixed operation budget,
// not by wall time, so a stalled reader pins a number of nodes set by
// the algorithm rather than by machine speed.
//
// Correctness is checked after every window: every present key must map
// to itself and size_slow() must equal the keys present; with
// insert/remove traffic the size must also equal prefill + successful
// inserts - successful removes; every hit must carry its key's value; and
// on the wire every request must be answered, with no protocol errors,
// and the server's op roll-up must equal the client's. --seeded-wrong makes one hidden write per window
// kind in the first round, so the checks must fire.
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// The exit code is 0 only when every check passed.
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ds/iset.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "probes.hpp"
#include "runtime/rng.hpp"
#include "service/sharded_map.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kSchemes = {"EBR", "HP", "HazardPtrPOP",
                                           "EpochPOP"};

constexpr int kWorkers = 3;          // in-process worker threads
constexpr int kServerWorkers = 2;    // NetServer epoll workers
constexpr int kConnections = 2;      // blocking loadgen connections
constexpr int kPipeline = 32;        // requests per wire batch
constexpr int kServerShards = 4;     // ShardedMap behind the NetServer
constexpr uint64_t kChunk = 512;     // ops claimed from the budget at once
// Traced rounds record one span per kSpanEvery IKV ops and per
// kBatchSpanEvery wire batches, which keeps a 30 s trace near 20 MB.
constexpr uint64_t kSpanEvery = 512;
constexpr uint64_t kBatchSpanEvery = 16;

// One traffic mix. It runs in-process per scheme and over the wire.
struct Workload {
  const char* name;
  const char* ds;
  int shards;  // in-process map: 1 = the bare structure, >1 = ShardedMap
  uint64_t key_range;
  uint64_t prefill;
  uint32_t pct_insert, pct_remove, pct_put;  // remainder: get
  bool stall;  // a fifth thread sits parked inside an operation
  uint64_t window_ops;    // in-process op budget per scheme window
  uint64_t wire_batches;  // batches per connection per wire window
};

// Why each exists: see NOTES.md beside this file.
const Workload kWorkloads[] = {
    {"read-traverse", "HML", 1, 2048, 1024, 1, 1, 0, false, 200000, 2000},
    {"write-stall", "HMHT", 1, 65536, 32768, 25, 25, 0, true, 600000, 3000},
    {"wire-kv", "HMHT", kServerShards, 16384, 16384, 0, 0, 10, false, 1000000,
     8000},
};

uint64_t mix_seed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full) ^
               (c * 0x165667b19e3779f9ull);
  return pop::runtime::splitmix64(s);
}

uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

clockid_t thread_clock(std::thread& t) {
  clockid_t c{};
  pthread_getcpuclockid(t.native_handle(), &c);
  return c;
}

// Thread placement. Left to the scheduler, a mostly-sleeping thread (the
// parked reader, a blocked client) is often woken onto a busy worker's
// CPU; a ping to it then waits for that worker's time slice, and whole
// runs flip between a fast and a slow mode. With at least four CPUs each
// role gets fixed ones: in-process workers on slots 0-2, the parked
// reader and the main thread on slot 3; on the wire, server workers on
// slots 0-1 and client connections on slots 2-3.
std::vector<int> g_cpus;

void init_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) g_cpus.push_back(c);
  }
  if (g_cpus.size() < 4) g_cpus.clear();  // too few to separate the roles
}

// Restricts the calling thread to the given CPU slots; no-op without
// placement.
void pin_self(std::initializer_list<int> slots) {
  if (g_cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int s : slots) CPU_SET(g_cpus[static_cast<std::size_t>(s)], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Outcome of one in-process scheme window.
struct InprocResult {
  bool ok = true;
  uint64_t setup_ns = 0;
  uint64_t ops = 0;
  uint64_t elapsed_ns = 0;
  uint64_t worker_cpu_ns = 0;  // summed over the worker threads
  uint64_t setup_cpu_ns = 0;
  uint64_t bad_values = 0;
  double p99_us = 0;
  uint64_t lat_samples = 0;
  uint64_t unreclaimed_peak = 0;
  pop::smr::StatsSnapshot before, after;
  std::vector<uint64_t> get_ns, update_ns;  // traced rounds only
};

// Outcome of one wire window.
struct WireResult {
  bool ok = true;
  uint64_t setup_ns = 0;
  uint64_t setup_cpu_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t elapsed_ns = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  uint64_t rtt_samples = 0;
  double server_cpu_us_per_op = 0;
  double shard_skew = 0;
  double ops_per_bracket = 0;
};

// Checks a quiescent map. Every key in range that is present must map to
// itself (all writers store value == key), and size_slow() must equal the
// number present. With insert/remove traffic (`exact`) the size must also
// equal prefill + successful inserts - successful removes. Put traffic
// cannot be balanced that way: a replacing put marks the old node before
// it links the new one (hm_list.hpp put()), so the key is briefly absent,
// a concurrent put on the same key reports kInserted while the replacer
// reports kReplaced, and the outcome counts overstate the size. That
// drift is printed, not gated.
bool check_map(pop::ds::IKV& map, uint64_t key_range, uint64_t expect,
               bool exact, const std::string& what, int round) {
  uint64_t present = 0, wrong_value = 0;
  for (uint64_t k = 0; k < key_range; ++k) {
    uint64_t v = 0;
    if (map.get(k, &v)) {
      ++present;
      if (v != k) ++wrong_value;
    }
  }
  const uint64_t size = map.size_slow();
  const bool ok = size == present && wrong_value == 0 && (!exact || size == expect);
  if (!ok) {
    std::printf("# CHECK FAILED %s round %d: size %llu, keys present %llu, "
                "expected %llu, wrong values %llu\n",
                what.c_str(), round, static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(present),
                static_cast<unsigned long long>(expect),
                static_cast<unsigned long long>(wrong_value));
  } else if (size != expect) {
    std::printf("# note %s round %d: put outcomes imply size %llu, map holds "
                "%llu\n",
                what.c_str(), round, static_cast<unsigned long long>(expect),
                static_cast<unsigned long long>(size));
  }
  return ok;
}

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {
    // The prefilled keys: a seeded permutation of the key range.
    std::vector<uint64_t> keys(w.key_range);
    for (uint64_t k = 0; k < w.key_range; ++k) keys[k] = k;
    pop::runtime::Xoshiro256 rng(mix_seed(seed, 1, 0, 0));
    for (uint64_t i = w.key_range - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.next_below(i + 1)]);
    }
    prefill_.assign(keys.begin(), keys.begin() + w.prefill);
  }

  InprocResult run_inproc(const std::string& scheme, int round,
                          uint64_t parent_span, bool wrong);
  WireResult run_wire(int round, uint64_t parent_span, bool wrong);

 private:
  std::unique_ptr<pop::ds::IKV> make_map(const std::string& scheme) const {
    pop::ds::SetConfig cfg;
    cfg.capacity = w_.key_range;
    return pop::service::make_service_set(w_.ds, scheme, cfg, w_.shards);
  }

  const Workload& w_;
  const uint64_t seed_;
  std::vector<uint64_t> prefill_;
};

InprocResult Runner::run_inproc(const std::string& scheme, int round,
                                uint64_t parent_span, bool wrong) {
  InprocResult r;
  const bool sharded = w_.shards > 1;
  const uint64_t t_setup = now_ns();
  const uint64_t c_setup = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  std::unique_ptr<pop::ds::IKV> map;
  {
    ScopedSpan s(sharded ? "service.create" : "ds.make_kv", parent_span);
    map = make_map(scheme);
  }
  if (!map) {
    r.ok = false;
    return r;
  }
  {
    ScopedSpan s(sharded ? "service.prefill" : "ds.prefill", parent_span);
    for (uint64_t k : prefill_) map->insert(k);
    map->detach_thread();
  }
  r.setup_ns = now_ns() - t_setup;
  r.setup_cpu_ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - c_setup;
  ScopedSpan window("bench.window", parent_span);
  r.before = map->smr_stats();

  // The stalled reader: parked inside an operation bracket for the whole
  // window, released once the op budget is spent.
  std::atomic<bool> release{false};
  std::atomic<bool> parking{false};
  std::thread parker;
  if (w_.stall) {
    parker = std::thread([&] {
      pin_self({3});
      parking.store(true, std::memory_order_release);
      map->park_in_operation(release);
      map->detach_thread();
    });
    while (!parking.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  struct Out {
    uint64_t ops = 0, inserted = 0, removed = 0, bad = 0, peak = 0, end = 0;
    uint64_t cpu = 0;
    std::vector<uint32_t> lat;
    std::vector<uint64_t> get_ns, update_ns;
  };
  std::vector<Out> outs(kWorkers);
  std::atomic<uint64_t> budget{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const bool traced = trace_on();
  const char* get_name = sharded ? "service.get" : "ds.get";
  const char* upd_name = sharded ? "service.update" : "ds.update";
  const uint64_t window_id = window.id();
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      pin_self({t});
      Out& o = outs[t];
      o.lat.reserve(w_.window_ops / kWorkers + 2 * kChunk);
      // Same key and op stream for every scheme of a round.
      pop::runtime::Xoshiro256 rng(
          mix_seed(seed_, 2, static_cast<uint64_t>(round), t));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {}
      const uint64_t cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      uint64_t base;
      while ((base = budget.fetch_add(kChunk)) < w_.window_ops) {
        const uint64_t n = std::min(kChunk, w_.window_ops - base);
        for (uint64_t i = 0; i < n; ++i) {
          const uint64_t key = rng.next_below(w_.key_range);
          const uint32_t roll = static_cast<uint32_t>(rng.next_below(100));
          const uint64_t t0 = now_ns();
          bool is_get = false;
          if (roll < w_.pct_insert) {
            if (map->insert(key)) ++o.inserted;
          } else if (roll < w_.pct_insert + w_.pct_remove) {
            if (map->remove(key)) ++o.removed;
          } else if (roll < w_.pct_insert + w_.pct_remove + w_.pct_put) {
            if (map->put(key, key) == pop::ds::PutResult::kInserted) {
              ++o.inserted;
            }
          } else {
            uint64_t v = 0;
            if (map->get(key, &v) && v != key) ++o.bad;
            is_get = true;
          }
          const uint64_t t1 = now_ns();
          o.lat.push_back(static_cast<uint32_t>(
              std::min<uint64_t>(t1 - t0, UINT32_MAX)));
          if (traced && (o.ops + i) % kSpanEvery == 0) {
            record_span(is_get ? get_name : upd_name, window_id, 0, t0, t1);
            (is_get ? o.get_ns : o.update_ns).push_back(t1 - t0);
          }
        }
        o.ops += n;
        o.peak = std::max(o.peak, map->smr_stats().unreclaimed());
      }
      o.end = now_ns();
      o.cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      map->detach_thread();
    });
  }
  while (ready.load() < kWorkers) std::this_thread::yield();
  const uint64_t t_start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& th : workers) th.join();
  r.unreclaimed_peak = map->smr_stats().unreclaimed();
  release.store(true, std::memory_order_release);
  if (parker.joinable()) parker.join();

  uint64_t inserted = 0, removed = 0, t_end = t_start;
  std::vector<uint32_t> lat;
  lat.reserve(w_.window_ops);
  for (auto& o : outs) {
    r.ops += o.ops;
    inserted += o.inserted;
    removed += o.removed;
    r.bad_values += o.bad;
    r.unreclaimed_peak = std::max(r.unreclaimed_peak, o.peak);
    t_end = std::max(t_end, o.end);
    r.worker_cpu_ns += o.cpu;
    lat.insert(lat.end(), o.lat.begin(), o.lat.end());
    r.get_ns.insert(r.get_ns.end(), o.get_ns.begin(), o.get_ns.end());
    r.update_ns.insert(r.update_ns.end(), o.update_ns.begin(),
                       o.update_ns.end());
  }
  r.elapsed_ns = t_end - t_start;
  r.lat_samples = lat.size();
  r.p99_us = quantile(lat, 0.99) / 1e3;
  r.after = map->smr_stats();

  // Seeded-wrong mode: one write the accounting never sees.
  if (wrong) map->insert(w_.key_range + 1);
  const std::string what = std::string(w_.name) + " " + scheme;
  r.ok = check_map(*map, w_.key_range, prefill_.size() + inserted - removed,
                   w_.pct_put == 0, what, round) &&
         r.bad_values == 0;
  map->detach_thread();
  return r;
}

WireResult Runner::run_wire(int round, uint64_t parent_span, bool wrong) {
  WireResult r;
  const uint64_t t_setup = now_ns();
  const uint64_t c_setup = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  pop::net::NetServerConfig cfg;
  cfg.ds = w_.ds;
  cfg.smr = "EpochPOP";
  cfg.shards = kServerShards;
  cfg.workers = kServerWorkers;
  cfg.port = 0;
  cfg.set.capacity = w_.key_range;
  std::unique_ptr<pop::net::NetServer> server;
  {
    ScopedSpan s("net.server_create", parent_span);
    server = pop::net::NetServer::create(cfg);
  }
  if (!server) {
    r.ok = false;
    return r;
  }
  {
    ScopedSpan s("net.server_start", parent_span);
    pin_self({0, 1});  // the server's workers inherit this placement
    server->start();
    pin_self({3});
  }
  std::vector<std::unique_ptr<pop::net::NetClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    ScopedSpan s("net.connect", parent_span);
    clients.push_back(std::make_unique<pop::net::NetClient>());
    if (!clients.back()->connect_tcp("127.0.0.1", server->port())) {
      r.ok = false;
      return r;
    }
  }

  // Client-side roll-up, compared with the server's at the end.
  struct Conn {
    uint64_t gets = 0, puts = 0, dels = 0, inserted = 0, removed = 0;
    uint64_t attempted = 0, failed = 0, bad = 0;
    std::vector<uint64_t> rtt_ns;
    uint64_t cpu_ns = 0;
    bool dead = false;
  };
  std::vector<Conn> conns(kConnections);

  // Pipelined PUT prefill, the prefilled keys split over the connections.
  {
    ScopedSpan s("net.wire_prefill", parent_span);
    std::vector<std::thread> ts;
    for (int c = 0; c < kConnections; ++c) {
      ts.emplace_back([&, c] {
        pin_self({2 + c});
        std::vector<pop::net::Request> reqs;
        std::vector<pop::net::Response> resps;
        for (uint64_t i = c; i < prefill_.size();) {
          reqs.clear();
          for (; reqs.size() < kPipeline && i < prefill_.size();
               i += kConnections) {
            reqs.push_back({pop::net::Op::kPut, prefill_[i], prefill_[i]});
          }
          if (!clients[c]->exec_batch(reqs, &resps)) {
            conns[c].dead = true;
            return;
          }
          conns[c].puts += reqs.size();
          for (const auto& rp : resps) {
            if (rp.status != pop::net::Status::kInserted) ++conns[c].bad;
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  r.setup_ns = now_ns() - t_setup;
  r.setup_cpu_ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - c_setup;

  ScopedSpan window("bench.wire_window", parent_span);
  std::atomic<bool> release{false};
  std::atomic<bool> parking{false};
  std::thread parker;
  if (w_.stall) {
    parker = std::thread([&] {
      pin_self({3});
      parking.store(true, std::memory_order_release);
      server->map().park_in_operation(release);
      server->map().detach_thread();
    });
    while (!parking.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Server CPU = process CPU minus every benchmark-owned thread's CPU.
  const clockid_t parker_clock =
      parker.joinable() ? thread_clock(parker) : CLOCK_THREAD_CPUTIME_ID;
  const uint64_t parker0 = parker.joinable() ? cpu_ns(parker_clock) : 0;
  const uint64_t main0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  const uint64_t proc0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  const uint64_t t_start = now_ns();
  const uint64_t window_id = window.id();
  std::vector<std::thread> ts;
  for (int c = 0; c < kConnections; ++c) {
    ts.emplace_back([&, c] {
      pin_self({2 + c});
      const uint64_t cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      Conn& o = conns[c];
      o.rtt_ns.reserve(w_.wire_batches);
      pop::runtime::Xoshiro256 rng(
          mix_seed(seed_, 3, static_cast<uint64_t>(round), c));
      std::vector<pop::net::Request> reqs;
      std::vector<pop::net::Response> resps;
      const uint32_t pct_write = w_.pct_insert + w_.pct_put;
      for (uint64_t b = 0; b < w_.wire_batches && !o.dead; ++b) {
        reqs.clear();
        for (int p = 0; p < kPipeline; ++p) {
          const uint64_t key = rng.next_below(w_.key_range);
          const uint32_t roll = static_cast<uint32_t>(rng.next_below(100));
          if (roll < pct_write) {
            reqs.push_back({pop::net::Op::kPut, key, key});
          } else if (roll < pct_write + w_.pct_remove) {
            reqs.push_back({pop::net::Op::kDel, key, 0});
          } else {
            reqs.push_back({pop::net::Op::kGet, key, 0});
          }
        }
        o.attempted += reqs.size();
        const uint64_t id =
            trace_on() && b % kBatchSpanEvery == 0 ? next_span_id() : 0;
        const uint64_t t0 = now_ns();
        const bool sent = clients[c]->exec_batch(reqs, &resps);
        const uint64_t t1 = now_ns();
        if (id != 0) record_span("net.exec_batch", window_id, id, t0, t1);
        if (!sent) {
          o.failed += reqs.size();
          o.dead = true;
          break;
        }
        o.rtt_ns.push_back(t1 - t0);
        for (size_t i = 0; i < reqs.size(); ++i) {
          const auto& q = reqs[i];
          const auto st = resps[i].status;
          if (q.op == pop::net::Op::kGet) {
            ++o.gets;
            if (st == pop::net::Status::kHit && resps[i].val != q.key) ++o.bad;
            if (st != pop::net::Status::kHit && st != pop::net::Status::kMiss) {
              ++o.bad;
            }
          } else if (q.op == pop::net::Op::kPut) {
            ++o.puts;
            if (st == pop::net::Status::kInserted) {
              ++o.inserted;
            } else if (st != pop::net::Status::kReplaced) {
              ++o.bad;
            }
          } else {
            ++o.dels;
            if (st == pop::net::Status::kHit) {
              ++o.removed;
            } else if (st != pop::net::Status::kMiss) {
              ++o.bad;
            }
          }
        }
      }
      o.cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  for (auto& t : ts) t.join();
  const uint64_t t_end = now_ns();
  const uint64_t proc_ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - proc0;
  const uint64_t main_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - main0;
  const uint64_t parker_ns = parker.joinable() ? cpu_ns(parker_clock) - parker0 : 0;
  release.store(true, std::memory_order_release);
  if (parker.joinable()) parker.join();

  // Seeded-wrong mode: one request from a connection the roll-up never
  // counts.
  if (wrong) {
    pop::net::NetClient hidden;
    bool replaced = false;
    if (hidden.connect_tcp("127.0.0.1", server->port())) {
      hidden.put(w_.key_range + 1, w_.key_range + 1, &replaced);
    }
  }
  clients.clear();
  server->stop();

  uint64_t gets = 0, puts = 0, dels = 0, inserted = 0, removed = 0, bad = 0;
  uint64_t loadgen_cpu = 0, window_ops = 0;
  std::vector<uint64_t> rtt;
  for (const auto& o : conns) {
    gets += o.gets;
    puts += o.puts;
    dels += o.dels;
    inserted += o.inserted;
    removed += o.removed;
    bad += o.bad;
    r.attempted += o.attempted;
    r.failed += o.failed;
    loadgen_cpu += o.cpu_ns;
    window_ops += o.attempted - o.failed;
    rtt.insert(rtt.end(), o.rtt_ns.begin(), o.rtt_ns.end());
    if (o.dead) r.ok = false;
  }
  r.failed += bad;
  r.elapsed_ns = t_end - t_start;
  r.rtt_samples = rtt.size();
  r.rtt_p50_us = quantile(rtt, 0.50) / 1e3;
  r.rtt_p99_us = quantile(rtt, 0.99) / 1e3;
  const uint64_t owned = loadgen_cpu + main_ns + parker_ns;
  r.server_cpu_us_per_op =
      static_cast<double>(proc_ns > owned ? proc_ns - owned : 0) / 1e3 /
      static_cast<double>(std::max<uint64_t>(window_ops, 1));

  const auto total = server->total_stats();
  r.ops_per_bracket = static_cast<double>(total.ops) /
                      static_cast<double>(std::max<uint64_t>(total.batches, 1));
  if (auto* sm = dynamic_cast<pop::service::ShardedMap*>(&server->map())) {
    const auto ss = sm->service_stats();
    r.shard_skew = static_cast<double>(ss.ops_max_shard()) * sm->num_shards() /
                   static_cast<double>(std::max<uint64_t>(ss.ops_total, 1));
  }
  const bool rollup_ok = total.ops == gets + puts + dels &&
                         total.gets == gets && total.puts == puts &&
                         total.dels == dels && total.protocol_errors == 0;
  if (!rollup_ok || bad != 0) {
    std::printf("# CHECK FAILED %s wire round %d: server ops %llu (client "
                "%llu), protocol errors %llu, bad responses %llu\n",
                w_.name, round, static_cast<unsigned long long>(total.ops),
                static_cast<unsigned long long>(gets + puts + dels),
                static_cast<unsigned long long>(total.protocol_errors),
                static_cast<unsigned long long>(bad));
    r.ok = false;
  }
  // Every wire mix writes with PUT, so only the contents are checked.
  const std::string what = std::string(w_.name) + " wire";
  r.ok = check_map(server->map(), w_.key_range,
                   prefill_.size() + inserted - removed, false, what, round) &&
         r.ok;
  server->map().detach_thread();
  return r;
}

// ---- reporting -------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

struct SchemeAgg {
  std::vector<double> mops, wall_mops, p99_us, peak;
  std::vector<uint64_t> lat_samples;
  std::vector<uint64_t> get_ns, update_ns;
  pop::smr::StatsSnapshot delta;
  std::vector<double> max_retire_len;
  uint64_t ops = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read-traverse|write-stall|wire-kv "
               "--seed N --seconds S --trace 0|1 [--out DIR] "
               "[--seeded-wrong]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, out_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool seeded_wrong = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_val) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--out" && has_val) {
      out_dir = argv[++i];
    } else if (a == "--seeded-wrong") {
      seeded_wrong = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const auto& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr || seconds <= 0) return usage();

  init_cpus();
  Runner runner(*w, seed);
  std::map<std::string, double> layer;
  if (trace != 0) {
    set_trace_on(true);
    run_probes(kSchemes, &layer);
  }
  pin_self({3});

  const uint64_t t0 = now_ns();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  // A traced run alternates traced and untraced rounds so the difference
  // between them is the tracing overhead.
  const int min_rounds = trace != 0 ? 2 : 1;
  std::map<std::string, SchemeAgg> agg;
  std::vector<double> setup_s, setup_wall_s, rtt_p50, server_cpu, rtt_p99, net_mops, skew,
      per_bracket;
  std::vector<double> plain_ns_per_op, traced_ns_per_op, plain_rtt, traced_rtt;
  bool correct = true;
  uint64_t attempted = 0, failed = 0, rtt_samples = 0;
  uint64_t longest_round = 0;
  int round = 0;
  for (;; ++round) {
    const uint64_t now = now_ns();
    if (round >= min_rounds && now + longest_round > deadline) break;
    const bool traced = trace != 0 && round % 2 == 1;
    set_trace_on(traced);
    const bool wrong = seeded_wrong && round == 0;
    ScopedSpan round_span("bench.round");
    uint64_t round_setup = 0, round_setup_wall = 0, round_ops = 0, round_ns = 0;
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
      const auto& s =
          kSchemes[(i + static_cast<std::size_t>(round) + seed) % kSchemes.size()];
      InprocResult r = runner.run_inproc(s, round, round_span.id(),
                                         wrong && i == seed % kSchemes.size());
      correct = correct && r.ok;
      attempted += r.ops;
      failed += r.bad_values;
      round_setup += r.setup_cpu_ns;
      round_setup_wall += r.setup_ns;
      round_ops += r.ops;
      round_ns += r.elapsed_ns;
      SchemeAgg& a = agg[s];
      // Throughput over the workers' own CPU time: what they reach while
      // running, so time a co-tenant steals from the VM does not count.
      a.mops.push_back(static_cast<double>(r.ops) * 1e3 * kWorkers /
                       static_cast<double>(std::max<uint64_t>(r.worker_cpu_ns, 1)));
      a.wall_mops.push_back(static_cast<double>(r.ops) * 1e3 /
                            static_cast<double>(std::max<uint64_t>(r.elapsed_ns, 1)));
      a.p99_us.push_back(r.p99_us);
      a.lat_samples.push_back(r.lat_samples);
      a.peak.push_back(static_cast<double>(r.unreclaimed_peak));
      a.ops += r.ops;
      auto& d = a.delta;  // counters summed over this scheme's windows
      d.freed += r.after.freed - r.before.freed;
      d.scans += r.after.scans - r.before.scans;
      d.signals_sent += r.after.signals_sent - r.before.signals_sent;
      d.ebr_frees += r.after.ebr_frees - r.before.ebr_frees;
      d.pop_frees += r.after.pop_frees - r.before.pop_frees;
      a.max_retire_len.push_back(static_cast<double>(r.after.max_retire_len));
      a.get_ns.insert(a.get_ns.end(), r.get_ns.begin(), r.get_ns.end());
      a.update_ns.insert(a.update_ns.end(), r.update_ns.begin(),
                         r.update_ns.end());
    }
    WireResult wr = runner.run_wire(round, round_span.id(), wrong);
    correct = correct && wr.ok;
    attempted += wr.attempted;
    failed += wr.failed;
    round_setup += wr.setup_cpu_ns;
    round_setup_wall += wr.setup_ns;
    setup_s.push_back(static_cast<double>(round_setup) / 1e9);
    setup_wall_s.push_back(static_cast<double>(round_setup_wall) / 1e9);
    rtt_p50.push_back(wr.rtt_p50_us);
    rtt_p99.push_back(wr.rtt_p99_us);
    rtt_samples += wr.rtt_samples;
    server_cpu.push_back(wr.server_cpu_us_per_op);
    net_mops.push_back(static_cast<double>(wr.attempted - wr.failed) * 1e3 /
                       static_cast<double>(std::max<uint64_t>(wr.elapsed_ns, 1)));
    skew.push_back(wr.shard_skew);
    per_bracket.push_back(wr.ops_per_bracket);
    const double ns_per_op = static_cast<double>(round_ns) /
                             static_cast<double>(std::max<uint64_t>(round_ops, 1));
    (traced ? traced_ns_per_op : plain_ns_per_op).push_back(ns_per_op);
    (traced ? traced_rtt : plain_rtt).push_back(wr.rtt_p50_us);
    longest_round = std::max(longest_round, now_ns() - now);
  }
  set_trace_on(false);

  std::printf("# perfbench %s seed %llu: %d rounds in %.2f s\n", w->name,
              static_cast<unsigned long long>(seed), round,
              static_cast<double>(now_ns() - t0) / 1e9);
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    for (const auto& s : kSchemes) {
      const SchemeAgg& a = agg[s];
      metrics.push_back({"mops." + s, median(a.mops), "Mops/s"});
      metrics.push_back({"p99_us." + s, median(a.p99_us), "us"});
      metrics.push_back({"unreclaimed_peak." + s, median(a.peak), "nodes"});
      std::printf("# %-13s wall-clock %.4f Mops/s; p99 over %llu op "
                  "latencies per window\n",
                  s.c_str(), median(a.wall_mops),
                  static_cast<unsigned long long>(median(a.lat_samples)));
    }
    metrics.push_back({"rtt_p50_us", median(rtt_p50), "us"});
    metrics.push_back({"server_cpu_us_per_op", median(server_cpu), "us"});
    std::printf("# rtt_p50_us over %llu batch round trips; set-up wall-clock "
                "%.4f s per round\n",
                static_cast<unsigned long long>(rtt_samples),
                median(setup_wall_s));
    auto m = [&](const std::string& n) {
      for (const auto& x : metrics) {
        if (x.name == n) return x.value;
      }
      return 0.0;
    };
    std::printf("# shape mops.HazardPtrPOP/mops.HP = %.3f (base mops.HP = %.4f Mops/s)\n",
                ratio(m("mops.HazardPtrPOP"), m("mops.HP")), m("mops.HP"));
    std::printf("# shape mops.EpochPOP/mops.EBR = %.3f (base mops.EBR = %.4f Mops/s)\n",
                ratio(m("mops.EpochPOP"), m("mops.EBR")), m("mops.EBR"));
    std::printf("# shape unreclaimed_peak.EBR/unreclaimed_peak.EpochPOP = %.2f "
                "(base unreclaimed_peak.EpochPOP = %.0f nodes)\n",
                ratio(m("unreclaimed_peak.EBR"), m("unreclaimed_peak.EpochPOP")),
                m("unreclaimed_peak.EpochPOP"));
  } else {
    for (const auto& [name, v] : layer) {
      const bool ns = name.find("_ns") != std::string::npos;
      metrics.push_back({name, v, ns ? "ns" : "us"});
    }
    for (const auto& s : kSchemes) {
      const SchemeAgg& a = agg[s];
      const double mops = static_cast<double>(a.ops) / 1e6;
      const auto& d = a.delta;
      metrics.push_back({"smr.scans_per_mop." + s,
                         ratio(static_cast<double>(d.scans), mops), "count/Mop"});
      metrics.push_back({"smr.freed_per_scan." + s,
                         ratio(static_cast<double>(d.freed),
                               static_cast<double>(d.scans)),
                         "nodes"});
      metrics.push_back({"smr.max_retire_len." + s, median(a.max_retire_len),
                         "nodes"});
      metrics.push_back({"core.signals_per_mop." + s,
                         ratio(static_cast<double>(d.signals_sent), mops),
                         "count/Mop"});
      metrics.push_back({"ds.get_ns." + s, median(a.get_ns), "ns"});
      metrics.push_back({"ds.update_ns." + s, median(a.update_ns), "ns"});
    }
    const auto& ep = agg["EpochPOP"].delta;
    metrics.push_back({"core.pop_free_share.EpochPOP",
                       ratio(static_cast<double>(ep.pop_frees),
                             static_cast<double>(ep.ebr_frees + ep.pop_frees)),
                       "ratio"});
    metrics.push_back({"service.shard_skew", median(skew), "ratio"});
    metrics.push_back({"net.batch_rtt_p99_us", median(rtt_p99), "us"});
    metrics.push_back({"net.mops", median(net_mops), "Mops/s"});
    metrics.push_back({"net.ops_per_bracket", median(per_bracket), "count"});

    const double plain = median(plain_ns_per_op), traced = median(traced_ns_per_op);
    std::printf("# tracing overhead %s: in-process %+.2f%% (%.1f ns/op traced vs "
                "%.1f untraced, %zu+%zu rounds); wire rtt_p50 %+.2f%% (%.1f us "
                "vs %.1f us)\n",
                w->name, 100 * (ratio(traced, plain) - 1), traced, plain,
                traced_ns_per_op.size(), plain_ns_per_op.size(),
                100 * (ratio(median(traced_rtt), median(plain_rtt)) - 1),
                median(traced_rtt), median(plain_rtt));

    const auto spans = collect_spans();
    const std::string base = out_dir + "/trace-" + w->name + "-seed" +
                             std::to_string(seed);
    if (!write_perfetto(spans, base + ".json")) {
      std::printf("# cannot write %s.json\n", base.c_str());
      correct = false;
    }
    const auto rows = layer_table(spans);
    uint64_t all_self = 0;
    for (const auto& row : rows) all_self += row.self_ns;
    std::FILE* tsv = std::fopen((base + ".layers.tsv").c_str(), "w");
    if (tsv != nullptr) {
      std::fprintf(tsv, "layer\tcalls\ttotal_ms\tself_ms\tself_share\n");
    }
    std::printf("# %-8s %10s %12s %12s %8s  (self_share base: %.1f ms traced "
                "self time, %zu spans, %llu dropped)\n",
                "layer", "calls", "total_ms", "self_ms", "share",
                static_cast<double>(all_self) / 1e6, spans.size(),
                static_cast<unsigned long long>(dropped_spans()));
    for (const auto& row : rows) {
      const double share = ratio(static_cast<double>(row.self_ns),
                                 static_cast<double>(all_self));
      std::printf("# %-8s %10llu %12.3f %12.3f %8.4f\n", row.layer.c_str(),
                  static_cast<unsigned long long>(row.calls),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<double>(row.self_ns) / 1e6, share);
      if (tsv != nullptr) {
        std::fprintf(tsv, "%s\t%llu\t%.6f\t%.6f\t%.6f\n", row.layer.c_str(),
                     static_cast<unsigned long long>(row.calls),
                     static_cast<double>(row.total_ns) / 1e6,
                     static_cast<double>(row.self_ns) / 1e6, share);
      }
    }
    if (tsv != nullptr) std::fclose(tsv);
    std::printf("# spans: %s.json, layer table: %s.layers.tsv\n", base.c_str(),
                base.c_str());
  }

  for (const auto& x : metrics) {
    std::printf("# %-36s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("# ops_attempted %llu\n# ops_failed %llu\n# correct %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
