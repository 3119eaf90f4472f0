// The clustered digital-CIM Ising annealer (§III + §IV + §V).
//
// Pipeline per solve:
//   1. hierarchical clustering of the instance (cluster::Hierarchy);
//   2. the top level's super-clusters are ordered into a ring;
//   3. hierarchical annealing descends level-by-level: at each level every
//      cluster owns one compact weight window (Fig. 3(c)) holding the
//      8-bit quantised distances between its members and the boundary
//      members of its ring neighbours; the cluster's member order is
//      annealed with PBM order swaps whose energies are the window-column
//      MACs (Fig. 5(a): two MACs before the swap, two after, compare);
//   4. weights are periodically written back while the pseudo-read supply
//      rises and the noisy-LSB count falls (noise::AnnealSchedule), so the
//      SRAM-induced weight noise anneals away;
//   5. ring-non-adjacent clusters update in parallel (chromatic Gibbs):
//      odd and even ring positions alternate cycles — an odd-length ring
//      needs a third phase for its last cluster;
//   6. after level 0 the member ring *is* the city tour.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anneal/noise_source.hpp"
#include "cluster/hierarchy.hpp"
#include "cim/activity.hpp"
#include "cim/dataflow.hpp"
#include "cim/storage.hpp"
#include "cim/window.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace cim::anneal {

enum class BackendKind { kFast, kBitLevel };

struct AnnealerConfig {
  cluster::Options clustering;
  noise::AnnealSchedule::Params schedule;
  noise::SramNoiseParams sram;
  NoiseMode noise = NoiseMode::kSramWeight;
  BackendKind backend = BackendKind::kFast;
  bool chromatic_parallel = true;  ///< false → sequential Gibbs (ablation)
  /// Incremental sparse swap kernel (default): every 4-MAC swap iterates
  /// only the p + 2 set input rows, tracked per slot and updated in place
  /// on accept/revert. A proposal repeated from an unchanged input state
  /// (common in rejection streaks) reuses its ΔE from the per-window swap
  /// ΔE cache (DESIGN.md §16), charging its four MACs. false runs the
  /// dense rebuild-and-scan kernel without the cache — bit-identical
  /// results and hardware counters, kept as the test oracle and the
  /// ablation.
  bool sparse_swap_kernel = true;
  std::uint32_t weight_bits = 8;
  std::uint64_t seed = 1;
  /// Optional warm start (src/store): a full city tour from a previous
  /// solve of the same (or a perturbed) instance. When non-empty it must
  /// be a valid permutation of the instance's cities; the top ring and
  /// every slot's initial member order then follow these ranks instead of
  /// the cold construction. Deterministic for a given order + seed, but
  /// not bit-identical to a cold solve.
  std::vector<tsp::CityId> initial_order;
  /// Record the level-0 ring length after every iteration (costly; for
  /// convergence studies on small instances).
  bool record_trace = false;
};

/// Per-level outcome.
struct LevelStats {
  std::size_t level = 0;         ///< hierarchy level index (depth-1 = top)
  std::size_t clusters = 0;
  std::size_t iterations = 0;
  std::size_t swaps_attempted = 0;
  std::size_t swaps_accepted = 0;
  /// Accepted swaps whose *exact* (noise-free, unquantised) energy delta
  /// was positive — uphill moves, only reachable through noise. The
  /// annealing-vs-greedy observable of §IV.B.
  std::size_t uphill_accepted = 0;
  std::size_t update_cycles = 0;  ///< hardware cycles (MAC + write-back)
  /// kSramSpin settle-cache behaviour: swap evaluations that reused the
  /// per-epoch settle pattern vs. rebuilds that re-derived it, and the
  /// individual settle decisions drawn while doing so (the dense-kernel
  /// ablation draws per input bit instead of per cache rebuild). For
  /// kLfsr, noise_draws counts Metropolis uniform draws. All three are 0
  /// for noise modes that draw nothing in the swap kernel.
  std::size_t settle_cache_hits = 0;
  std::size_t settle_cache_refreshes = 0;
  std::size_t noise_draws = 0;
  /// Swap ΔE-cache behaviour: swap attempts answered from the per-slot
  /// cache vs. attempts that ran the four MACs and (re)filled it, so
  /// memo_hits + memo_misses == swaps_attempted. Both 0 when the dense
  /// kernel runs.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  /// The memo hits taken on the quiescent-slot fast path: attempts on a
  /// slot whose every order pair was cached under a no-draw accept rule,
  /// rejected without reading the slot (DESIGN.md §16). At most
  /// memo_hits; 0 under kLfsr and on the dense kernel.
  std::size_t quiescent_hits = 0;
  /// Distance-cache behaviour of the exact-distance paths (window build,
  /// accepted-swap exact deltas, ring-length scoring) and the bytes of
  /// cache entries touched — the reuse-layer traffic observable.
  std::uint64_t dcache_hits = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t dcache_bytes = 0;
  double ring_length_after = 0.0; ///< expanded ring length (level metric)
};

/// Aggregated hardware activity for the PPA models. The struct lives in
/// the hw layer (cim/activity.hpp) so the PPA models can consume it
/// without depending on the annealer; the alias keeps annealer-side code
/// reading naturally.
using HardwareActivity = hw::HardwareActivity;

struct AnnealResult {
  tsp::Tour tour;
  long long length = 0;            ///< TSPLIB length of the final tour
  std::vector<LevelStats> levels;  ///< top level first
  HardwareActivity hw;
  std::vector<double> trace;       ///< optional per-iteration level-0 length
  std::size_t hierarchy_depth = 0;
  std::size_t max_cluster_size = 0;
};

/// Disjoint spin-register cell-id bases for the kSramSpin mode, one per
/// ring slot. Ids start at a high tag and stride by max(256, largest
/// window height): a window has rows() = p² + p_prev + p_next register
/// cells, which exceeds the historical 2⁸ stride once p ≥ 16, so striding
/// by 2⁸ would alias adjacent slots' error patterns. The 256 floor keeps
/// the established patterns of small windows unchanged. Exposed for
/// tests.
std::vector<std::uint64_t> spin_cell_bases(
    const std::vector<hw::WindowShape>& shapes);

class ClusteredAnnealer {
 public:
  explicit ClusteredAnnealer(AnnealerConfig config);

  const AnnealerConfig& config() const { return config_; }

  /// Solves the instance end-to-end. Thread-compatible: one solve per
  /// annealer instance at a time.
  AnnealResult solve(const tsp::Instance& instance) const;

 private:
  AnnealerConfig config_;
};

}  // namespace cim::anneal
