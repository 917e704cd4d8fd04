#include "cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/thread_registry.hpp"

namespace pop::bench {

namespace {

void usage(const char* prog, int exit_code) {
  std::fprintf(
      stderr,
      "usage: %s [--threads N,N,..] [--smr NAME,..] [--ds NAME,..]\n"
      "          [--shards N,N,..] [--shard-hash splitmix|modulo]\n"
      "          [--duration-ms N] [--json PATH]\n"
      "          [--latency] [--hw-counters] [--trace PATH]\n"
      "          [--host ADDR] [--port N] [--connections N] [--pipeline N]\n"
      "          [--net-workers N]\n"
      "          [--scenario NAME|all] [--short] [--list] [--help]\n",
      prog);
  std::exit(exit_code);
}

[[noreturn]] void reject(const char* prog, const char* flag,
                         const std::string& value, const char* why) {
  std::fprintf(stderr, "%s: %s '%s' %s\n", prog, flag, value.c_str(), why);
  std::exit(2);
}

// Accepts "--flag value" and "--flag=value"; returns the value and
// advances *i past a detached one.
std::string flag_value(int argc, char** argv, int* i, const char* flag,
                       const char* prog) {
  const char* arg = argv[*i];
  const size_t flen = std::strlen(flag);
  if (arg[flen] == '=') return arg + flen + 1;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s needs a value\n", prog, flag);
    usage(prog, 2);
  }
  return argv[++(*i)];
}

bool matches(const char* arg, const char* flag) {
  const size_t flen = std::strlen(flag);
  return std::strncmp(arg, flag, flen) == 0 &&
         (arg[flen] == '\0' || arg[flen] == '=');
}

bool ident_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

// Identifier flags (scheme / structure / scenario / hash names) travel
// into factory lookups and JSONL string fields verbatim, so names are
// restricted to [A-Za-z0-9_-]. Anything else (a stray quote, a path, a
// shell glob that expanded) is rejected here.
std::string checked_ident(std::string value, const char* flag,
                          const char* prog) {
  bool ok = !value.empty();
  for (const char c : value) ok = ok && ident_char(c);
  if (!ok) reject(prog, flag, value, "is not a name (allowed: A-Za-z0-9_-)");
  return value;
}

// Host names travel into connect()/bind() and JSONL labels: the ident
// charset plus '.' (dotted quads, DNS labels).
std::string checked_host(std::string value, const char* flag,
                         const char* prog) {
  bool ok = !value.empty();
  for (const char c : value) ok = ok && (ident_char(c) || c == '.');
  if (!ok) {
    reject(prog, flag, value, "is not a host name (allowed: A-Za-z0-9_-.)");
  }
  return value;
}

// Non-negative integer flags: digits only, bounded. "8x", "-1", or an
// empty value is a one-line diagnosis, not a silent 0.
long checked_uint(const std::string& value, const char* flag,
                  const char* prog, long lo, long hi) {
  bool digits = !value.empty() && value.size() <= 10;
  for (const char c : value) digits = digits && c >= '0' && c <= '9';
  const long v = digits ? std::strtol(value.c_str(), nullptr, 10) : -1;
  if (!digits || v < lo || v > hi) {
    char why[64];
    std::snprintf(why, sizeof why, "is not an integer in [%ld, %ld]", lo, hi);
    reject(prog, flag, value, why);
  }
  return v;
}

std::vector<std::string> split_csv(const std::string& raw) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t comma; (comma = raw.find(',', start)) != std::string::npos;
       start = comma + 1) {
    out.push_back(raw.substr(start, comma - start));
  }
  out.push_back(raw.substr(start));
  return out;
}

// Comma lists: every entry passes its scalar check, so "1,,2" and
// "HML,../x" are rejected whole, not trimmed.
std::vector<std::string> ident_list(const std::string& raw, const char* flag,
                                    const char* prog) {
  std::vector<std::string> out;
  for (auto& tok : split_csv(raw)) {
    if (tok.empty()) reject(prog, flag, raw, "has an empty entry");
    out.push_back(checked_ident(std::move(tok), flag, prog));
  }
  return out;
}

std::vector<int> int_list(const std::string& raw, const char* flag,
                          const char* prog, long lo, long hi) {
  std::vector<int> out;
  for (const auto& tok : split_csv(raw)) {
    out.push_back(static_cast<int>(checked_uint(tok, flag, prog, lo, hi)));
  }
  return out;
}

}  // namespace

BenchOptions apply_bench_cli(int argc, char** argv) {
  BenchOptions out;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // The value of the flag `arg` matches; consumes a detached one.
    const auto value = [&](const char* flag) {
      return flag_value(argc, argv, &i, flag, prog);
    };
    if (matches(arg, "--threads")) {
      out.axes.threads =
          int_list(value("--threads"), "--threads", prog, 1,
                   runtime::kMaxThreads);
    } else if (matches(arg, "--smr")) {
      out.axes.smrs = ident_list(value("--smr"), "--smr", prog);
    } else if (matches(arg, "--ds")) {
      out.axes.ds = ident_list(value("--ds"), "--ds", prog);
    } else if (matches(arg, "--shards")) {
      out.axes.shards = int_list(value("--shards"), "--shards", prog, 1, 4096);
    } else if (matches(arg, "--shard-hash")) {
      out.axes.shard_hash =
          checked_ident(value("--shard-hash"), "--shard-hash", prog);
    } else if (matches(arg, "--duration-ms")) {
      out.axes.duration_ms = static_cast<uint64_t>(checked_uint(
          value("--duration-ms"), "--duration-ms", prog, 1, 86400000));
    } else if (matches(arg, "--json")) {
      out.json = value("--json");  // a path, not an identifier
    } else if (std::strcmp(arg, "--latency") == 0) {
      out.latency = true;
    } else if (std::strcmp(arg, "--hw-counters") == 0) {
      out.hw_counters = true;
    } else if (matches(arg, "--trace")) {
      out.trace = value("--trace");
    } else if (matches(arg, "--host")) {
      out.host = checked_host(value("--host"), "--host", prog);
    } else if (matches(arg, "--port")) {
      out.port = static_cast<int>(
          checked_uint(value("--port"), "--port", prog, 0, 65535));
    } else if (matches(arg, "--connections")) {
      out.connections = static_cast<int>(
          checked_uint(value("--connections"), "--connections", prog, 1,
                       4096));
    } else if (matches(arg, "--pipeline")) {
      out.pipeline = static_cast<int>(
          checked_uint(value("--pipeline"), "--pipeline", prog, 1, 4096));
    } else if (matches(arg, "--net-workers")) {
      out.net_workers = static_cast<int>(
          checked_uint(value("--net-workers"), "--net-workers", prog, 1, 256));
    } else if (matches(arg, "--scenario")) {
      out.scenario = checked_ident(value("--scenario"), "--scenario", prog);
    } else if (std::strcmp(arg, "--short") == 0) {
      out.axes.short_mode = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      out.list = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage(prog, 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, arg);
      usage(prog, 2);
    }
  }
  if (out.latency) obs::set_latency(true);
  if (out.hw_counters) obs::set_hw(true);
  // Arm the tracer and dump its rings at exit.
  if (!out.trace.empty()) {
    obs::arm_trace(out.trace);
    static bool dump_registered = false;
    if (!dump_registered) {
      dump_registered = true;
      std::atexit([] { obs::dump_trace(); });
    }
  }
  return out;
}

}  // namespace pop::bench
