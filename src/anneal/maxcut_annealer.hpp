// Max-Cut on the noisy digital-CIM substrate.
//
// Maps a Max-Cut instance onto the same hardware primitives as every
// other Ising problem: couplings live in noisy SRAM weight storage
// (8-bit magnitudes; signed graphs use a positive and a negative
// magnitude plane, subtracted digitally — a standard digital-CIM
// signed-weight trick), spins are the input register, and one spin update
// is a column MAC followed by a sign decision. Non-adjacent spins (a
// graph colouring) update in parallel, and the §IV.B schedule anneals the
// weight noise away.
//
// The annealer is a front end over the spin-sweep core (local_fields.hpp):
// the one-window, colour-grouped case. Minimising the cut energy
// Σ w σσ is the Ising problem with J = −w, so the w < 0 plane is the
// core's pos plane and the w ≥ 0 plane its neg plane, and the core's
// rule σ ← sign(field) is the Max-Cut rule σ ← −sign(Σ w σ).
//
// This makes the Table III comparison executable: the competitors'
// problem class (Max-Cut, complete or sparse graphs) runs on this design's
// machinery with the same entropy source.
#pragma once

#include "anneal/local_fields.hpp"
#include "ising/maxcut.hpp"

namespace cim::anneal {

using MaxCutConfig = IsingAnnealConfig;

/// `trace` holds the cut after each sweep.
struct MaxCutResult : SpinSweepResult {
  long long cut = 0;        ///< final cut value
  /// Best cut observed: max(initial cut, final cut), plus every
  /// per-sweep cut when `record_trace` is on. Without a trace, a better
  /// cut passed through mid-anneal is not seen. `spins` is always the
  /// final assignment, which may cut less than this.
  long long best_cut = 0;
  std::size_t color_count = 0;  ///< chromatic classes (parallel groups)
};

class MaxCutAnnealer {
 public:
  explicit MaxCutAnnealer(MaxCutConfig config);

  const MaxCutConfig& config() const { return config_; }

  MaxCutResult solve(const ising::MaxCutProblem& problem) const;

 private:
  MaxCutConfig config_;
};

}  // namespace cim::anneal
