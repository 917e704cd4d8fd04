// NetServer: an epoll edge-triggered TCP front end over the service
// layer's IKV (ShardedMap when shards > 1).
//
// Shape: N worker threads, each owning a private epoll instance; the
// listen socket lives in worker 0's epoll and accepted connections are
// dealt round-robin across workers (epoll_ctl into another worker's
// epoll is a plain syscall — no handoff queue needed). Each connection
// belongs to exactly one worker for its whole life, so its parse/write
// buffers and ConnectionStats are single-writer without locks (the stats
// are SwmrCounters, so total_stats() may read a live connection's); the
// per-worker connection list is mutex-guarded only because accepts (and
// adopt()) insert from a different thread than the one that removes.
//
// The batching contract (the reason this server exists as a benchmark
// surface): every readable burst is drained through the framing layer
// into a vector of decoded requests, then the WHOLE pipeline executes
// inside ONE SMR batch bracket — map->batch_begin(), apply every op,
// map->batch_end() — so the scheme's per-op entry fence is paid once per
// batch instead of once per op. The bracket is never held across a
// blocking wait: it opens after the socket read completes and closes
// before the response write starts, so a worker parked in epoll_wait
// pins nothing (see src/smr/domain_base.hpp for the skip mechanism).
//
// Protocol errors (bad length prefix, unknown opcode, shape mismatch)
// close the connection after counting; a torn frame at EOF counts too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ds/iset.hpp"
#include "net/frame.hpp"
#include "service/service_stats.hpp"
#include "service/sharded_map.hpp"

namespace pop::net {

struct NetServerConfig {
  std::string ds = "HMHT";
  std::string smr = "EBR";
  int shards = 1;
  int workers = 2;
  // Port 0 binds an ephemeral port; read the real one back via port().
  uint16_t port = 0;
  std::string host = "127.0.0.1";
  ds::SetConfig set;
  service::ShardHash hash = service::ShardHash::kSplitMix64;
  // When false the server never opens a listen socket — connections
  // arrive only through adopt() (hermetic socketpair tests).
  bool listen = true;
};

class NetServer {
 public:
  // Builds the map and (when cfg.listen) binds the listen socket.
  // nullptr on unknown ds/smr names or bind failure (reported on stderr).
  static std::unique_ptr<NetServer> create(const NetServerConfig& cfg);

  ~NetServer();

  // Spawns the worker threads. Call once.
  void start();

  // Stops accepting, closes every connection, joins the workers. Safe to
  // call twice; the destructor calls it.
  void stop();

  // The bound port (resolves port 0 to the kernel-assigned one).
  uint16_t port() const { return port_; }

  // Hands an already-connected socket (e.g. one end of a socketpair) to
  // a worker. The server owns the fd from here on. False when the server
  // is stopped or the fd cannot be registered.
  bool adopt(int fd);

  // Roll-up of every connection ever served (closed + still live).
  service::ConnectionStats total_stats() const;
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  ds::IKV& map() { return *map_; }
  const NetServerConfig& config() const { return cfg_; }

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

 private:
  struct Conn {
    int fd = -1;
    int worker = 0;
    FrameSplitter in;
    // Pending response bytes not yet accepted by the kernel, starting at
    // out_pos (flushed on EPOLLOUT once the socket buffer was full).
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    bool want_write = false;
    bool dead = false;
    service::ConnectionStats stats;
    // Decoded-pipeline scratch, reused across batches.
    std::vector<Request> batch;
  };

  struct Worker {
    int epfd = -1;
    std::thread thread;
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Conn>> conns;  // guarded by mu
    service::ConnectionStats closed_total;     // guarded by mu
  };

  explicit NetServer(const NetServerConfig& cfg);

  void worker_loop(int w);
  void accept_burst();
  // Reads everything available, executes complete frames in batch
  // brackets, queues responses. Marks the conn dead on error/EOF.
  void drain_readable(Conn* c);
  // Executes c->batch inside one bracket, appending responses to c->out.
  void execute_batch(Conn* c);
  // Pushes c->out to the socket; arms EPOLLOUT when the kernel pushes
  // back. Marks the conn dead on hard write errors.
  void flush_writes(Conn* c);
  void update_interest(Conn* c);
  bool register_conn(int fd);
  void destroy_conn(Conn* c);

  NetServerConfig cfg_;
  std::unique_ptr<ds::IKV> map_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_worker_{0};  // round-robin dealer
  std::atomic<uint64_t> next_conn_id_{0};
  std::atomic<uint64_t> accepted_{0};
};

}  // namespace pop::net
