// Environment-variable helpers. The library reads one knob, POPSMR_AUDIT
// (src/smr/audit.cpp); every bench knob is a flag (bench/cli.hpp).
#pragma once

#include <cstdint>
#include <string>

namespace pop::runtime {

// Value of `name` parsed as u64, or `fallback` if unset/unparsable.
uint64_t env_u64(const char* name, uint64_t fallback);

// Value of `name`, or `fallback` if unset.
std::string env_str(const char* name, const std::string& fallback);

}  // namespace pop::runtime
