// Host-speed gauge of the end-to-end benchmark (bench/e2e/README.md).
//
// The reference host is shared. For seconds to hours at a time, other
// tenants slow every solver call by up to 1.5x, more than any bound.
// cimbench therefore runs this gauge between timed calls and between
// set-ups, and divides each one's wall time by the gauge's slowdown around
// it.
//
// The gauge is five fixed kernels that load the resources the solver uses:
// integer throughput, an L2-resident pointer chase, a branchy 2-opt pass,
// and Metropolis flips on a 192 KB and a 1.5 MB ring of spins. No single
// kernel follows every slow period of the host; their geometric mean does.
// The kernels are the benchmark's own code, so no change to the solver
// moves them.
#pragma once

#include <cstdint>
#include <vector>

namespace cim::bench::e2e {

class HostSpeed {
 public:
  HostSpeed();

  /// Runs the five kernels once (about 9 ms) and returns the geometric
  /// mean of their times over their median times on the reference host:
  /// 1 at that host's usual speed, 1.3 when it runs 30% slower.
  double slowdown();

 private:
  double alu();
  double chase();
  double two_opt();
  double metropolis(std::vector<std::int8_t>& spins,
                    const std::vector<std::int8_t>& initial,
                    const std::vector<std::int16_t>& couplings, int steps);

  std::vector<std::uint32_t> next_;  ///< one random cycle over 256 KB
  std::vector<float> xs_;            ///< 2-opt cities
  std::vector<float> ys_;
  std::vector<int> tour_;
  std::vector<std::int8_t> small_spins_;  ///< 64 Ki spins
  std::vector<std::int8_t> small_initial_;
  std::vector<std::int16_t> small_couplings_;
  std::vector<std::int8_t> large_spins_;  ///< 512 Ki spins
  std::vector<std::int8_t> large_initial_;
  std::vector<std::int16_t> large_couplings_;
  std::uint64_t sink_ = 0;  ///< keeps every kernel's result live
};

}  // namespace cim::bench::e2e
