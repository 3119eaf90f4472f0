// Kernel defaults shared by the annealers: all three read the
// memoization default below.
#pragma once

namespace cim::anneal {

/// Always false: no annealer has a packed kernel (DESIGN.md §14).
/// Exists only for the header line bench/e2e/cimbench.cpp prints.
bool default_vector_kernel();

/// Default for the annealers' `memoize_partial_sums` config field: the
/// CIMANNEAL_MEMOIZE environment flag, with the opposite resting state —
/// unset/empty means ON (memoization is the production path; CI forces
/// the recompute ablation with CIMANNEAL_MEMOIZE=0).
bool default_memoize();

}  // namespace cim::anneal
