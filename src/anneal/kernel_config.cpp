#include "anneal/kernel_config.hpp"

#include <cstdlib>

#include "util/args.hpp"

namespace cim::anneal {

// Exists only for the header line bench/e2e/cimbench.cpp prints.
bool default_vector_kernel() { return false; }

bool default_memoize() {
  const char* value = std::getenv("CIMANNEAL_MEMOIZE");
  if (value == nullptr || *value == '\0') return true;
  return util::Args::env_flag("CIMANNEAL_MEMOIZE");
}

}  // namespace cim::anneal
