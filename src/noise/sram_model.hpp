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
//     flip iff k₂ ≥ flip_from[k₁]. Each threshold starts from the
//     closed-form root of σ_d·z(k₂) = margin(k₁) and is walked to the
//     exact boundary with the same snm()/sigma_disturb() comparison
//     flips() evaluates (k₁ and 64 − k₁ share one entry, their margins
//     being bit-equal), so the table reproduces settled_value() bit for
//     bit while the per-cell work shrinks to the counter hashes and one
//     byte lookup (no sqrt, no double compare, no call). PhaseSettler is
//     that table only: the settle pass below is the one production user,
//     and settled_value() stays the per-cell oracle the tests hold it to.
//   * Batched draws: a cell's ΔVth draw and preferred value are fixed at
//     fabrication; only the disturbance is drawn per epoch. So
//     hw::StorageBatch settles every noisy epoch of an anneal in one pass
//     (hw::settle_range, cim/storage.cpp), with one settler per cell
//     model and epoch, read-only and shared across its pooled tasks. Each
//     cell's draws depend only on (seed, cell id, epoch), so the pass is
//     written as lane loops over a block of 256 weights, per bit b:
//     every cell's golden bit XOR its preferred_word(); a branch-free
//     list of the anti-preferred cells (the stuck ones hold their
//     preferred value); each listed cell's ΔVth popcount k₁ and
//     disturb_key(), the epoch-invariant first round of its disturbance
//     hash; then per epoch of bit b's prefix (the noisy LSBs never grow)
//     the 2-round disturb_popcount(key, epoch) of every listed cell and
//     one compare with a 64-bit copy of the epoch's flip_from(k₁) table:
//     entries 0 and 65 need no branch of their own. Same draws, same
//     rule as settled_value(). The draws are popcounts of 64-bit hashes;
//     x86-64 builds compile with -mpopcnt so each is one instruction. The
//     pass is compiled twice, for the base ISA and for AVX-512 (F, DQ,
//     VL, BW, VPOPCNTDQ), where GCC turns the loops into 8-lane 64-bit
//     multiplies and popcounts; CPUID picks the build once at run time.
//     Only -O3 builds vectorise them (GCC 12 does not at -O2).
#pragma once

#include <array>
#include <cstdint>

#include "util/random.hpp"

namespace cim::noise {

/// The counter hashes behind every per-cell decision, shared by the
/// SramCellModel oracle and the write-back's settle pass so the two
/// cannot drift apart.
namespace cell_hash {

/// Bit count of `x`, equal to std::popcount. x86-64 builds compile with
/// -mpopcnt (the root CMakeLists.txt), where GCC folds this SWAR count
/// into one `popcnt` (scripts/ci.sh checks storage.cpp.o for it); on a
/// target without the instruction it still inlines branch-free, where
/// std::popcount would call into libgcc.
constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// popcount of the counter hash of (a, b, c): a Binomial(64, ½) draw.
inline int draw_popcount(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = util::hash_combine(util::hash_combine(a, b), c);
  return popcount64(util::splitmix64(s));
}

/// Unit-variance value of a popcount draw: (k − 32) / 4.
constexpr double unit_draw(int k) {
  return (static_cast<double>(k) - 32.0) / 4.0;
}

/// Popcount behind the cell's fixed ΔVth mismatch.
inline int vth_popcount(std::uint64_t seed, std::uint64_t cell_id) {
  return draw_popcount(seed, cell_id, 0x7281DULL);
}

/// The epoch-invariant first round of the cell's disturbance hash: the
/// draw_popcount(seed ^ 0xF11B, cell_id, epoch) of every epoch starts
/// from it.
inline std::uint64_t disturb_key(std::uint64_t seed, std::uint64_t cell_id) {
  return util::hash_combine(seed ^ 0xF11BULL, cell_id);
}

/// Popcount behind the bit-line disturbance of the pseudo-read in `epoch`
/// of the cell whose disturb_key() is `key`.
inline int disturb_popcount(std::uint64_t key, std::uint64_t epoch) {
  std::uint64_t s = util::hash_combine(key, epoch);
  return popcount64(util::splitmix64(s));
}

/// The hash word whose bit 0 is preferred_bit(): a lane loop over cells
/// masks it itself, since a bool-returning hash in a loop body keeps GCC
/// from vectorising it.
inline std::uint64_t preferred_word(std::uint64_t seed,
                                    std::uint64_t cell_id) {
  std::uint64_t s = util::hash_combine(seed, cell_id ^ 0xBEEFULL);
  return util::splitmix64(s);
}

/// The value the cell's asymmetric latch falls towards.
inline bool preferred_bit(std::uint64_t seed, std::uint64_t cell_id) {
  return (preferred_word(seed, cell_id) & 1ULL) != 0;
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

/// One pseudo-read phase of a model as a flip table for the settle pass
/// (see the implementation notes above). Cheap to build — 65 binary
/// searches over 65 disturbance classes — so a batch builds one per model
/// and noisy epoch, whatever the array size.
class PhaseSettler {
 public:
  PhaseSettler(const SramCellModel& model, std::uint64_t epoch, double vdd);

  /// The epoch whose pseudo-read this settler models.
  std::uint64_t epoch() const { return epoch_; }

  /// The table entry for ΔVth popcount `k1` ≤ 64: the least disturbance
  /// popcount that flips such a cell (0 = always, 65 = never).
  unsigned flip_from(unsigned k1) const { return flip_from_[k1]; }

 private:
  std::uint64_t epoch_;
  /// flip_from_[k₁]: least disturbance popcount k₂ that flips a cell of
  /// ΔVth popcount k₁; 0 = always flips, 65 = never flips.
  std::array<std::uint8_t, 65> flip_from_{};
};

}  // namespace cim::noise
