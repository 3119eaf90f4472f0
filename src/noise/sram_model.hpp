// Compact SRAM pseudo-read error model (§IV.A, Fig. 6).
//
// The paper characterises noisy-bit generation with Monte-Carlo SPICE on a
// TSMC 16 nm PDK: the word-line is asserted while the cell's supply voltage
// is lowered, shrinking the butterfly curve's static noise margin (SNM)
// until bit-line disturbance flips the storage node. We reproduce this with
// a compact analytic model:
//
//   * each cell carries a fixed threshold-voltage mismatch
//     ΔVth ~ N(0, σ_vth²) and a *preferred* storage value — the direction
//     the asymmetric latch falls towards (spatially fixed after
//     fabrication, exactly the property §IV.B exploits);
//   * the read SNM shrinks linearly with supply voltage and is eroded by
//     the mismatch magnitude:  SNM(v) = max(0, k·(v − v₀) − |ΔVth|);
//   * during a pseudo-read the bit-line injects a disturbance
//     δ ~ N(0, σ_d²) with σ_d ∝ 1/√C_BL — larger bit-line capacitance
//     filters the disturbance and sharpens the error-rate transition, as
//     the paper observes in Fig. 6(b);
//   * a cell storing its anti-preferred value flips iff δ > SNM(v); a cell
//     already holding its preferred value is stable. Flips are sticky until
//     the next write-back (the paper's "irreversible" voltage flipping).
//
// With random stored data the population error rate is
// 0.5 · E[P(δ > SNM(v, ΔVth))], a sigmoid in v that rises from ~0 at the
// 800 mV nominal supply towards 50 % at 200 mV — the shape of Fig. 6(b).
//
// Implementation notes:
//   * All per-cell randomness is counter-hashed from (model seed, cell id,
//     epoch), so the fast and bit-level storage backends reproduce
//     bit-identical error patterns without storing per-cell state.
//   * Normal draws use the popcount-binomial approximation
//     Z ≈ (popcount(hash64) − 32) / 4, i.e. a centred Binomial(64, ½)
//     scaled to unit variance. It is within ~0.3 % of the normal CDF,
//     costs one hash + one popcount per draw (the model sits on the hot
//     path of every write-back), and — unlike a true normal — admits an
//     *exact* closed form for the expected error rate, so the analytic
//     curve and the Monte-Carlo measurement in Fig. 6(b) agree to
//     sampling error.
//   * Bulk write-backs go through PhaseSettler, a per-phase flip table.
//     For one (model, epoch, vdd) a cell's fate depends only on two
//     popcounts: k₁ of its ΔVth draw and k₂ of its disturbance draw. It
//     flips iff margin(k₁) ≤ 0 or σ_d·z(k₂) > margin(k₁), and σ_d·z(k₂)
//     is monotone in k₂, so the whole rule is one threshold byte per k₁:
//     flip iff k₂ ≥ flip_from[k₁]. The 65 thresholds are found by binary
//     search over k₂ with the same snm()/sigma_disturb() expressions
//     flips() evaluates, so the table reproduces settled_value() bit for
//     bit while the per-cell work shrinks to the counter hashes and one
//     byte lookup (no sqrt, no double compare, no call). That rule for an
//     anti-preferred, non-stuck cell is PhaseSettler::flips_anti(), and
//     settle() calls it. FastStorage hoists the rest, which is fixed per
//     cell: each write() builds a per-weight anti-preferred mask (bit b
//     set iff the stuck-adjusted stored bit differs from preferred_bit),
//     and a write-back calls flips_anti() only on the mask's set noisy
//     bits — the preferred and stuck hashes leave the per-phase pass.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "util/random.hpp"

namespace cim::noise {

/// The counter hashes behind every per-cell decision, shared by the
/// SramCellModel oracle and the inlined PhaseSettler so the two cannot
/// drift apart.
namespace cell_hash {

/// popcount of the counter hash of (a, b, c): a Binomial(64, ½) draw.
inline int draw_popcount(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = util::hash_combine(util::hash_combine(a, b), c);
  return std::popcount(util::splitmix64(s));
}

/// Unit-variance value of a popcount draw: (k − 32) / 4.
constexpr double unit_draw(int k) {
  return (static_cast<double>(k) - 32.0) / 4.0;
}

/// Popcount behind the cell's fixed ΔVth mismatch.
inline int vth_popcount(std::uint64_t seed, std::uint64_t cell_id) {
  return draw_popcount(seed, cell_id, 0x7281DULL);
}

/// Popcount behind the bit-line disturbance of the cell's pseudo-read in
/// `epoch`.
inline int disturb_popcount(std::uint64_t seed, std::uint64_t cell_id,
                            std::uint64_t epoch) {
  return draw_popcount(seed ^ 0xF11BULL, cell_id, epoch);
}

/// The value the cell's asymmetric latch falls towards.
inline bool preferred_bit(std::uint64_t seed, std::uint64_t cell_id) {
  std::uint64_t s = util::hash_combine(seed, cell_id ^ 0xBEEFULL);
  return (util::splitmix64(s) & 1ULL) != 0;
}

/// True iff the cell is a manufacturing defect at defect density `rate`.
inline bool is_stuck(std::uint64_t seed, std::uint64_t cell_id,
                     double rate) {
  if (rate <= 0.0) return false;
  std::uint64_t s = util::hash_combine(seed ^ 0x57DCULL, cell_id);
  const std::uint64_t bits = util::splitmix64(s);
  const double u = (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
  return u < rate;
}

}  // namespace cell_hash

struct SramNoiseParams {
  double nominal_vdd = 0.80;   ///< V, 16 nm nominal supply
  double snm_slope = 0.50;     ///< V of read-SNM per V of supply
  double snm_v0 = 0.18;        ///< supply at which a perfect cell's SNM hits 0
  double sigma_vth = 0.05;     ///< V, per-cell mismatch std-dev
  double bl_cap_ff = 20.0;     ///< fF, bit-line capacitance
  double disturb_base = 0.045; ///< V·√fF, disturbance scale before C_BL filter
  /// Manufacturing defect density: fraction of bit cells stuck at a fixed
  /// value regardless of writes (hard faults, unlike the soft pseudo-read
  /// flips). 0 models a fully yielding die.
  double stuck_cell_rate = 0.0;

  /// Disturbance std-dev after bit-line filtering.
  double sigma_disturb() const;
};

/// Deterministic per-cell traits derived from (seed, cell id).
struct CellTraits {
  double delta_vth = 0.0;  ///< signed mismatch (V)
  bool preferred_bit = false;
};

class SramCellModel {
 public:
  SramCellModel() : SramCellModel(SramNoiseParams{}, 0x5EED) {}
  explicit SramCellModel(SramNoiseParams params,
                         std::uint64_t seed = 0x5EED);

  const SramNoiseParams& params() const { return params_; }
  std::uint64_t seed() const { return seed_; }

  /// Fixed fabrication traits of a cell.
  CellTraits traits(std::uint64_t cell_id) const;

  /// Read SNM at supply `vdd` for mismatch `delta_vth`; clamped at 0.
  double snm(double vdd, double delta_vth) const;

  /// Probability that one pseudo-read at `vdd` flips a cell with mismatch
  /// `delta_vth` that stores its anti-preferred value (exact under the
  /// binomial disturbance model).
  double flip_probability(double vdd, double delta_vth) const;

  /// Deterministic flip decision for (cell, epoch) at `vdd`: true iff the
  /// hashed disturbance draw exceeds the cell's SNM. Only meaningful when
  /// the stored value is anti-preferred.
  bool flips(std::uint64_t cell_id, std::uint64_t epoch, double vdd) const;

  /// The stored value of a cell after a pseudo-read settles, given the
  /// written value. Applies the stuck-at mask, then the
  /// preferred-direction rule.
  bool settled_value(std::uint64_t cell_id, std::uint64_t epoch, double vdd,
                     bool written) const;

  /// True iff the cell is a manufacturing defect (stuck at its preferred
  /// value); deterministic per cell.
  bool is_stuck(std::uint64_t cell_id) const;

  /// Population error rate for random stored data at `vdd`:
  /// 0.5 · E_ΔVth[P(δ > SNM)], exact under the binomial draw model.
  double expected_error_rate(double vdd) const;

 private:
  SramNoiseParams params_;
  std::uint64_t seed_ = 0;
};

/// One pseudo-read phase of a model, precomputed for bulk write-backs
/// (see the implementation notes above). Cheap to build — 65 binary
/// searches over 65 disturbance classes — so a write-back builds one per
/// call, whatever the array size.
class PhaseSettler {
 public:
  PhaseSettler(const SramCellModel& model, std::uint64_t epoch, double vdd);

  /// Exactly SramCellModel::settled_value(cell_id, epoch, vdd, written).
  bool settle(std::uint64_t cell_id, bool written) const {
    const bool preferred = cell_hash::preferred_bit(seed_, cell_id);
    // A cell holding its preferred value is stable, stuck or not.
    if (written == preferred) return written;
    if (cell_hash::is_stuck(seed_, cell_id, stuck_rate_)) return preferred;
    return flips_anti(cell_id) ? preferred : written;
  }

  /// True iff this phase's pseudo-read flips a non-stuck cell that holds
  /// its anti-preferred value: the rule settle() applies to such a cell,
  /// and the whole per-phase decision of FastStorage's mask walk.
  bool flips_anti(std::uint64_t cell_id) const {
    const unsigned from =
        flip_from_[static_cast<std::size_t>(
            cell_hash::vth_popcount(seed_, cell_id))];
    // The table's extremes decide without the disturbance draw.
    if (from == 0) return true;
    if (from > 64) return false;
    return static_cast<unsigned>(
               cell_hash::disturb_popcount(seed_, cell_id, epoch_)) >= from;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t epoch_;
  double stuck_rate_;
  /// flip_from_[k₁]: least disturbance popcount k₂ that flips a cell of
  /// ΔVth popcount k₁; 0 = always flips, 65 = never flips.
  std::array<std::uint8_t, 65> flip_from_{};
};

}  // namespace cim::noise
