#include "cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/obs.hpp"

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
      "          [--scenario NAME|all] [--short] [--list] [--help]\n"
      "Value flags seed the matching POPSMR_BENCH_* env var; an already\n"
      "exported var wins over the flag (CI compatibility).\n",
      prog);
  std::exit(exit_code);
}

// setenv-without-override: the env layer keeps priority.
void seed_env(const char* var, const std::string& value) {
  ::setenv(var, value.c_str(), /*overwrite=*/0);
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

// Identifier flags (scheme / structure / scenario / hash names) travel
// into env vars, JSONL string fields, and factory lookups verbatim, so
// they are validated here at the parse boundary: names are restricted to
// [A-Za-z0-9_-], plus ',' as the separator where the flag takes a list.
// Anything else (a stray quote, a path, a shell glob that expanded) is
// diagnosed on one line and rejected before it can seed an env var.
std::string checked_ident(std::string value, const char* flag,
                          const char* prog, bool list_ok) {
  for (const char c : value) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    (list_ok && c == ',');
    if (!ok) {
      std::fprintf(stderr,
                   "%s: %s '%s' has invalid character '%c' (allowed: "
                   "A-Za-z0-9_-%s)\n",
                   prog, flag, value.c_str(), c, list_ok ? " and ','" : "");
      std::exit(2);
    }
  }
  return value;
}

// Host names travel into connect()/bind() and JSONL labels: the ident
// charset plus '.' (dotted quads, DNS labels). Rejected on one line like
// every other malformed flag value.
std::string checked_host(std::string value, const char* flag,
                         const char* prog) {
  bool ok = !value.empty();
  for (const char c : value) {
    ok = ok && ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.');
  }
  if (!ok) {
    std::fprintf(stderr,
                 "%s: %s '%s' is not a host name (allowed: A-Za-z0-9_-.)\n",
                 prog, flag, value.c_str());
    std::exit(2);
  }
  return value;
}

// Small non-negative integer flags (--port, --connections, ...): digits
// only, bounded. "8x", "-1", or an empty value is a one-line diagnosis,
// not a silent 0.
std::string checked_uint(std::string value, const char* flag, const char* prog,
                         long lo, long hi) {
  bool digits = !value.empty() && value.size() <= 10;
  for (const char c : value) digits = digits && c >= '0' && c <= '9';
  const long v = digits ? std::strtol(value.c_str(), nullptr, 10) : -1;
  if (!digits || v < lo || v > hi) {
    std::fprintf(stderr, "%s: %s '%s' is not an integer in [%ld, %ld]\n", prog,
                 flag, value.c_str(), lo, hi);
    std::exit(2);
  }
  return value;
}

}  // namespace

CliOptions apply_bench_cli(int argc, char** argv) {
  CliOptions out;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (matches(arg, "--threads")) {
      seed_env("POPSMR_BENCH_THREADS",
               flag_value(argc, argv, &i, "--threads", prog));
    } else if (matches(arg, "--smr") || matches(arg, "--smrs")) {
      const char* flag = matches(arg, "--smrs") ? "--smrs" : "--smr";
      seed_env("POPSMR_BENCH_SMRS",
               checked_ident(flag_value(argc, argv, &i, flag, prog), flag,
                             prog, /*list_ok=*/true));
    } else if (matches(arg, "--ds")) {
      seed_env("POPSMR_BENCH_DS",
               checked_ident(flag_value(argc, argv, &i, "--ds", prog), "--ds",
                             prog, /*list_ok=*/true));
    } else if (matches(arg, "--shards")) {
      seed_env("POPSMR_BENCH_SHARDS",
               flag_value(argc, argv, &i, "--shards", prog));
    } else if (matches(arg, "--shard-hash")) {
      seed_env("POPSMR_SHARD_HASH",
               checked_ident(flag_value(argc, argv, &i, "--shard-hash", prog),
                             "--shard-hash", prog, /*list_ok=*/false));
    } else if (matches(arg, "--duration-ms")) {
      seed_env("POPSMR_BENCH_DURATION_MS",
               flag_value(argc, argv, &i, "--duration-ms", prog));
    } else if (matches(arg, "--json")) {
      seed_env("POPSMR_BENCH_JSON",
               flag_value(argc, argv, &i, "--json", prog));
    } else if (std::strcmp(arg, "--latency") == 0) {
      seed_env("POPSMR_OBS_LATENCY", "1");
    } else if (std::strcmp(arg, "--hw-counters") == 0) {
      seed_env("POPSMR_OBS_HW", "1");
    } else if (matches(arg, "--trace")) {
      // A path, not an identifier: no checked_ident.
      seed_env("POPSMR_TRACE", flag_value(argc, argv, &i, "--trace", prog));
    } else if (matches(arg, "--host")) {
      seed_env("POPSMR_BENCH_HOST",
               checked_host(flag_value(argc, argv, &i, "--host", prog),
                            "--host", prog));
    } else if (matches(arg, "--port")) {
      seed_env("POPSMR_BENCH_PORT",
               checked_uint(flag_value(argc, argv, &i, "--port", prog),
                            "--port", prog, 0, 65535));
    } else if (matches(arg, "--connections")) {
      seed_env("POPSMR_BENCH_CONNECTIONS",
               checked_uint(flag_value(argc, argv, &i, "--connections", prog),
                            "--connections", prog, 1, 4096));
    } else if (matches(arg, "--pipeline")) {
      seed_env("POPSMR_BENCH_PIPELINE",
               checked_uint(flag_value(argc, argv, &i, "--pipeline", prog),
                            "--pipeline", prog, 1, 4096));
    } else if (matches(arg, "--net-workers")) {
      seed_env("POPSMR_NET_WORKERS",
               checked_uint(flag_value(argc, argv, &i, "--net-workers", prog),
                            "--net-workers", prog, 1, 256));
    } else if (matches(arg, "--scenario")) {
      out.scenario =
          checked_ident(flag_value(argc, argv, &i, "--scenario", prog),
                        "--scenario", prog, /*list_ok=*/false);
    } else if (std::strcmp(arg, "--short") == 0) {
      out.short_mode = true;
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
  // Resolve the observability channels now (env wins over the flags just
  // seeded, like every other knob), and register the end-of-process trace
  // dump once if tracing came up armed.
  obs::init_from_env();
  if (obs::trace_on()) {
    static bool dump_registered = false;
    if (!dump_registered) {
      dump_registered = true;
      std::atexit([] { obs::dump_trace(); });
    }
  }
  return out;
}

}  // namespace pop::bench
