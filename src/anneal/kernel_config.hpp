// Swap-kernel selection shared by the annealers.
//
// The Ising-side annealers (MaxCutAnnealer, GenericAnnealer) carry a
// `vector_kernel` knob choosing between the scalar kernel (the
// determinism oracle) and the bit-sliced packed path (cim/bitslice.hpp,
// DESIGN.md §14) for their column-MAC recompute path, which runs only
// with memoization off. The knob defaults from one environment flag so CI can
// force either path across every binary without touching configs. The
// clustered TSP annealer has no packed path and ignores the flag.
// All three annealers read the memoization default below.
#pragma once

namespace cim::anneal {

/// Default for the Ising annealers' `vector_kernel` config field: the
/// CIMANNEAL_VECTOR_KERNEL environment flag (unset/empty/"0"/"false"/
/// "off"/"no" → scalar kernel).
bool default_vector_kernel();

/// Default for the annealers' `memoize_partial_sums` config field: the
/// CIMANNEAL_MEMOIZE environment flag, with the opposite resting state —
/// unset/empty means ON (memoization is the production path; CI forces
/// the recompute ablation with CIMANNEAL_MEMOIZE=0).
bool default_memoize();

}  // namespace cim::anneal
