// bench_loadgen: the socket loadgen for the networked front end. Replays
// the cells of a named scenario's sweep — the same registry and axes
// bench_scenarios runs (see src/workload/scenarios.hpp) — over M
// connections x P-deep pipelines against a popsmr server, measuring
// END-TO-END latency: encode + socket + epoll + framing + the batched
// map ops + the response path, as a client of a pipelined connection
// experiences it.
//
// Two modes:
//   * in-process (default): each cell (ds x smr x shards) spawns its own
//     NetServer on an ephemeral loopback port, runs the cell, tears it
//     down — the full sweep works in one process with zero setup.
//   * remote (--host set, e.g. --host 127.0.0.1 --port 17979): drives an
//     already-running popsmr_server; the sweep's first cell only,
//     labelled with the local --ds/--smr flags (the wire protocol does
//     not carry the server's).
//
//   bench_loadgen --ds HMHT,RHHT --smr EBR,EpochPOP --connections 4
//                 --pipeline 8 --short --json net.jsonl
//   bench_loadgen --scenario hotspot-churn --connections 16 --pipeline 32
//
// --ds defaults to HMHT and --smr to every scheme; one connection per
// cell thread. Wire-op mapping from the scenario mix: pct_insert +
// pct_put -> PUT (the wire has no insert-if-absent), pct_erase -> DEL,
// remainder -> GET; plus one PING per connection per phase start. With
// --json set, every cell appends one kind-tagged "net" summary row and
// one "conn" row per connection.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/latency_histo.hpp"
#include "obs/obs.hpp"
#include "runtime/rng.hpp"
#include "workload/jsonl.hpp"
#include "workload/key_dist.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace pop;
using namespace pop::bench;
using namespace pop::workload;

struct ConnOutcome {
  service::ConnectionStats stats;
  obs::HistoSnapshot histo;
  bool failed = false;  // socket/protocol error mid-run
};

// Replays one phase on one established connection until the deadline.
void run_phase_on_conn(net::NetClient* client, const ScenarioSpec& spec,
                       const PhaseSpec& phase, const runtime::ZipfTable* zipf,
                       int pipeline, uint64_t deadline_ns, uint64_t seed,
                       ConnOutcome* out) {
  runtime::Xoshiro256 rng(seed);
  const KeyPicker picker(phase.keys, spec.key_range, zipf);
  const uint64_t phase_start = obs::now_ns();

  if (!client->ping()) {
    out->failed = true;
    return;
  }
  out->stats.pings++;
  out->stats.ops++;

  std::vector<net::Request> reqs;
  std::vector<net::Response> resps;
  std::vector<uint64_t> lats;
  const uint32_t pct_write = phase.pct_insert + phase.pct_put;
  while (obs::now_ns() < deadline_ns) {
    // Moving hotspots: the window index advances on wall time, same rule
    // as the scenario engine's coordinator.
    const uint64_t hot_window =
        phase.keys.hot_move_every_ms > 0
            ? (obs::now_ns() - phase_start) / 1000000u /
                  phase.keys.hot_move_every_ms
            : 0;
    reqs.clear();
    for (int p = 0; p < pipeline; ++p) {
      const uint64_t key = picker.next(rng, hot_window);
      const uint32_t roll =
          static_cast<uint32_t>(rng.next_below(100));
      if (roll < pct_write) {
        reqs.push_back({net::Op::kPut, key, rng.next()});
      } else if (roll < pct_write + phase.pct_erase) {
        reqs.push_back({net::Op::kDel, key, 0});
      } else {
        reqs.push_back({net::Op::kGet, key, 0});
      }
    }
    if (!client->exec_batch(reqs, &resps, &lats)) {
      out->failed = true;
      return;
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
      out->histo.add(lats[i]);
      auto& st = out->stats;
      st.ops++;
      switch (reqs[i].op) {
        case net::Op::kGet:
          st.gets++;
          if (resps[i].status == net::Status::kHit) st.get_hits++;
          break;
        case net::Op::kPut:
          st.puts++;
          if (resps[i].status == net::Status::kReplaced) st.put_replaced++;
          break;
        case net::Op::kDel:
          st.dels++;
          if (resps[i].status == net::Status::kHit) st.del_hits++;
          break;
        case net::Op::kPing:
          st.pings++;
          break;
      }
    }
    out->stats.batches++;
    if (reqs.size() > out->stats.max_batch) {
      out->stats.max_batch = reqs.size();
    }
  }
}

// Prefills the map through the wire (PUT key -> key), pipelined.
bool prefill_over_wire(net::NetClient* client, uint64_t prefill,
                       int pipeline) {
  std::vector<net::Request> reqs;
  std::vector<net::Response> resps;
  for (uint64_t k = 0; k < prefill;) {
    reqs.clear();
    for (int p = 0; p < pipeline && k < prefill; ++p, ++k) {
      reqs.push_back({net::Op::kPut, k, k});
    }
    if (!client->exec_batch(reqs, &resps)) return false;
  }
  return true;
}

void print_header(const std::string& scenario) {
  std::printf("\n# loadgen %s: %s\n", scenario.c_str(),
              scenario_description(scenario).c_str());
  std::printf("%-5s %-13s %4s %6s %5s %5s %8s %9s %9s %9s %7s\n", "ds", "smr",
              "wkrs", "shards", "conns", "pipe", "Mops", "p50(us)", "p99(us)",
              "p999(us)", "errors");
  std::fflush(stdout);
}

// One sweep cell: spins up / connects, prefills, replays every phase,
// emits the table row + JSONL. Returns false on a hard failure (server
// refused to build, no connection survived).
bool run_cell(const ScenarioSpec& spec, const BenchOptions& opts) {
  const int connections = spec.threads;
  const int pipeline = opts.pipeline;

  // In-process server per cell unless a remote host was given.
  std::unique_ptr<net::NetServer> server;
  std::string target_host = opts.host;
  uint16_t target_port = static_cast<uint16_t>(opts.port);
  if (opts.host.empty()) {
    net::NetServerConfig cfg;
    cfg.ds = spec.ds;
    cfg.smr = spec.smr;
    cfg.shards = spec.shards;
    cfg.workers = opts.net_workers;
    cfg.port = 0;  // ephemeral
    cfg.set.capacity = spec.key_range;
    cfg.set.load_factor = spec.load_factor;
    cfg.set.smr = spec.smr_cfg;
    server = net::NetServer::create(cfg);
    if (!server) return false;
    server->start();
    target_host = "127.0.0.1";
    target_port = server->port();
  }

  // Shared generator state: one Zipf table per cell when any phase is
  // Zipfian (the CDF build is O(key_range), do it once).
  std::unique_ptr<runtime::ZipfTable> zipf;
  for (const auto& ph : spec.phases) {
    if (ph.keys.kind == KeyDist::kZipfian && !zipf) {
      zipf = std::make_unique<runtime::ZipfTable>(spec.key_range,
                                                  ph.keys.zipf_theta);
    }
  }

  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::vector<ConnOutcome> outcomes(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    auto cl = std::make_unique<net::NetClient>();
    if (!cl->connect_tcp(target_host, target_port)) return false;
    outcomes[static_cast<size_t>(c)].stats.conn_id = static_cast<uint64_t>(c);
    clients.push_back(std::move(cl));
  }

  if (!prefill_over_wire(clients[0].get(), prefill_keys(spec), pipeline)) {
    std::fprintf(stderr, "bench_loadgen: prefill failed (%s:%u)\n",
                 target_host.c_str(), unsigned{target_port});
    return false;
  }

  const uint64_t cell_start = obs::now_ns();
  for (const auto& phase : spec.phases) {
    const uint64_t deadline =
        obs::now_ns() + phase.duration_ms * 1000000ull;
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back(run_phase_on_conn, clients[static_cast<size_t>(c)].get(),
                           std::cref(spec), std::cref(phase), zipf.get(),
                           pipeline, deadline,
                           /*seed=*/0x5eedull * (static_cast<uint64_t>(c) + 1),
                           &outcomes[static_cast<size_t>(c)]);
    }
    for (auto& t : threads) t.join();
  }
  const double seconds =
      static_cast<double>(obs::now_ns() - cell_start) / 1e9;

  clients.clear();  // close before the server tears down
  if (server) server->stop();

  service::ConnectionStats totals;
  obs::HistoSnapshot merged;
  std::vector<std::pair<service::ConnectionStats, obs::LatencySummary>> conns;
  int failed = 0;
  for (auto& o : outcomes) {
    totals.accumulate(o.stats);
    merged.merge(o.histo);
    conns.emplace_back(o.stats, obs::summarize(o.histo));
    if (o.failed) failed++;
  }
  const obs::LatencySummary latency = obs::summarize(merged);
  // A connection that died mid-run is an error even if the server never
  // saw a malformed frame; surface it in the row's error column.
  totals.protocol_errors += static_cast<uint64_t>(failed);

  std::printf("%-5s %-13s %4d %6d %5d %5d %8.3f %9.1f %9.1f %9.1f %7llu\n",
              spec.ds.c_str(), spec.smr.c_str(), opts.net_workers,
              spec.shards, connections, pipeline,
              seconds > 0 ? static_cast<double>(totals.ops) / seconds / 1e6
                          : 0.0,
              latency.p50_us, latency.p99_us, latency.p999_us,
              static_cast<unsigned long long>(totals.protocol_errors));
  std::fflush(stdout);
  emit_net_jsonl(opts.json, spec, opts.net_workers, pipeline, seconds, totals,
                 latency, conns);
  return failed < connections;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = apply_bench_cli(argc, argv);

  if (opts.list) {
    for (const auto& name : scenario_names()) {
      std::printf("%-22s %s\n", name.c_str(),
                  scenario_description(name).c_str());
    }
    return 0;
  }

  const std::string scenario =
      opts.scenario.empty() ? "uniform-mixed" : opts.scenario;
  SweepAxes axes = opts.axes;
  if (axes.ds.empty()) axes.ds = {"HMHT"};
  axes.threads = {opts.connections};
  const auto sweep = make_sweep(scenario, axes);
  if (!sweep) {
    std::fprintf(stderr, "bench_loadgen: unknown scenario '%s' (try --list)\n",
                 scenario.c_str());
    return 2;
  }

  print_header(scenario);
  bool ok = true;
  for (const auto& cell : sweep->cells) {
    ok = run_cell(cell.spec, opts) && ok;
    if (!opts.host.empty()) break;  // remote: one server, one cell
  }
  return ok ? 0 : 1;
}
