#include "driver.hpp"

#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "ds/iset.hpp"
#include "runtime/env.hpp"

namespace pop::bench {

namespace {

std::vector<std::string> split_csv(const std::string& raw) {
  std::vector<std::string> out;
  std::stringstream ss(raw);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

// The one parser behind every POPSMR_BENCH_* integer-list knob. Tokens
// without a number (after optional whitespace and sign) and values
// outside [lo, hi] are dropped. An empty value yields an empty list; a
// non-empty one that leaves nothing falls back to `def`.
std::vector<int> env_int_list(const char* var, const std::string& fallback,
                              int lo, int hi, int def) {
  const std::string raw = runtime::env_str(var, fallback);
  std::vector<int> out;
  if (raw.empty()) return out;
  for (const auto& tok : split_csv(raw)) {
    const std::size_t i = tok.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    const std::size_t d =
        i + ((tok[i] == '-' || tok[i] == '+') ? 1 : 0);
    if (d >= tok.size() || !std::isdigit(static_cast<unsigned char>(tok[d]))) {
      continue;  // no number: drop, don't parse to a silent 0
    }
    // strtol, not atoi: out-of-int-range input must saturate into the
    // range filter below instead of being undefined behavior.
    long v = std::strtol(tok.c_str() + i, nullptr, 10);
    if (v > INT_MAX) v = INT_MAX;
    if (v < INT_MIN) v = INT_MIN;
    if (v < lo || v > hi) continue;
    out.push_back(static_cast<int>(v));
  }
  if (out.empty()) out.push_back(def);
  return out;
}

}  // namespace

std::vector<int> bench_thread_list(const std::string& fallback) {
  return env_int_list("POPSMR_BENCH_THREADS", fallback, 1, INT_MAX,
                      /*def=*/2);
}

std::vector<std::string> bench_smr_list() {
  const std::string raw = runtime::env_str("POPSMR_BENCH_SMRS", "");
  if (raw.empty()) return ds::all_smr_names();
  return split_csv(raw);
}

std::vector<std::string> bench_ds_list(const std::string& fallback) {
  return split_csv(runtime::env_str("POPSMR_BENCH_DS", fallback));
}

std::vector<int> bench_shard_list(const std::string& fallback) {
  return env_int_list("POPSMR_BENCH_SHARDS", fallback, 1, INT_MAX,
                      /*def=*/1);
}

uint64_t bench_duration_ms(uint64_t fallback) {
  return runtime::env_u64("POPSMR_BENCH_DURATION_MS", fallback);
}

namespace {

// Bounded positive-int env knob with a one-line diagnosis on garbage
// (the CLI already validates the flag path; this guards direct exports).
int env_bounded_int(const char* var, int fallback, int lo, int hi) {
  const std::string raw = runtime::env_str(var, "");
  if (raw.empty()) return fallback;
  bool digits = raw.size() <= 10;
  for (const char c : raw) digits = digits && c >= '0' && c <= '9';
  const long v = digits ? std::strtol(raw.c_str(), nullptr, 10) : -1;
  if (!digits || v < lo || v > hi) {
    std::fprintf(stderr,
                 "popsmr bench: %s='%s' is not an integer in [%d, %d]; "
                 "using %d\n",
                 var, raw.c_str(), lo, hi, fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

}  // namespace

std::string bench_host(const std::string& fallback) {
  const std::string raw = runtime::env_str("POPSMR_BENCH_HOST", "");
  if (raw.empty()) return fallback;
  bool ok = true;
  for (const char c : raw) {
    ok = ok && ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.');
  }
  if (!ok) {
    std::fprintf(stderr,
                 "popsmr bench: POPSMR_BENCH_HOST='%s' is not a host name "
                 "(allowed: A-Za-z0-9_-.); using %s\n",
                 raw.c_str(), fallback.empty() ? "<none>" : fallback.c_str());
    return fallback;
  }
  return raw;
}

int bench_port(int fallback) {
  return env_bounded_int("POPSMR_BENCH_PORT", fallback, 0, 65535);
}

int bench_connections(int fallback) {
  return env_bounded_int("POPSMR_BENCH_CONNECTIONS", fallback, 1, 4096);
}

int bench_pipeline(int fallback) {
  return env_bounded_int("POPSMR_BENCH_PIPELINE", fallback, 1, 4096);
}

int bench_net_workers(int fallback) {
  return env_bounded_int("POPSMR_NET_WORKERS", fallback, 1, 256);
}

}  // namespace pop::bench
