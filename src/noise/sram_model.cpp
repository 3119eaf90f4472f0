#include "noise/sram_model.hpp"

#include <array>
#include <cmath>

#include "util/error.hpp"

namespace cim::noise {

namespace {

/// Read margin at `vdd` of a cell whose ΔVth draw has popcount k1.
double margin_of(const SramCellModel& model, double vdd, int k1) {
  return model.snm(vdd, model.params().sigma_vth * cell_hash::unit_draw(k1));
}

/// Bit-line disturbance of a pseudo-read whose draw has popcount k2.
double disturb_of(const SramNoiseParams& params, int k2) {
  return params.sigma_disturb() * cell_hash::unit_draw(k2);
}

/// pmf of popcount(uniform 64-bit) = C(64,k) / 2^64.
const std::array<double, 65>& binomial64_pmf() {
  static const std::array<double, 65> pmf = [] {
    std::array<double, 65> out{};
    // log C(64,k) via lgamma for numeric safety.
    for (int k = 0; k <= 64; ++k) {
      const double logc = std::lgamma(65.0) - std::lgamma(k + 1.0) -
                          std::lgamma(65.0 - k);
      out[static_cast<std::size_t>(k)] =
          std::exp(logc - 64.0 * std::log(2.0));
    }
    return out;
  }();
  return pmf;
}

/// P(Z > x) for Z = (Binom(64,½) − 32)/4: tail of popcount > 32 + 4x.
double binomial_tail(double x) {
  const double cut = 32.0 + 4.0 * x;
  const auto& pmf = binomial64_pmf();
  double tail = 0.0;
  for (int k = 64; k >= 0; --k) {
    if (static_cast<double>(k) <= cut) break;
    tail += pmf[static_cast<std::size_t>(k)];
  }
  return tail;
}

}  // namespace

double SramNoiseParams::sigma_disturb() const {
  CIM_ASSERT(bl_cap_ff > 0.0);
  return disturb_base / std::sqrt(bl_cap_ff);
}

SramCellModel::SramCellModel(SramNoiseParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  CIM_REQUIRE(params_.sigma_vth > 0.0, "sigma_vth must be positive");
  CIM_REQUIRE(params_.snm_slope > 0.0, "snm_slope must be positive");
  CIM_REQUIRE(params_.bl_cap_ff > 0.0,
              "bit-line capacitance must be positive");
  // PhaseSettler relies on the disturbance growing with its draw.
  CIM_REQUIRE(params_.disturb_base >= 0.0,
              "disturbance scale must be non-negative");
}

CellTraits SramCellModel::traits(std::uint64_t cell_id) const {
  CellTraits t;
  t.delta_vth = params_.sigma_vth *
                cell_hash::unit_draw(cell_hash::vth_popcount(seed_, cell_id));
  t.preferred_bit = cell_hash::preferred_bit(seed_, cell_id);
  return t;
}

double SramCellModel::snm(double vdd, double delta_vth) const {
  const double ideal = params_.snm_slope * (vdd - params_.snm_v0);
  return std::max(0.0, ideal - std::abs(delta_vth));
}

double SramCellModel::flip_probability(double vdd, double delta_vth) const {
  const double margin = snm(vdd, delta_vth);
  // A cell with zero read margin cannot hold anti-preferred data through a
  // pseudo-read: it falls to its preferred state with certainty, which is
  // what drives the error rate to 50% at very low supply (Fig. 6(b)).
  if (margin <= 0.0) return 1.0;
  return binomial_tail(margin / params_.sigma_disturb());
}

bool SramCellModel::flips(std::uint64_t cell_id, std::uint64_t epoch,
                          double vdd) const {
  const double margin =
      margin_of(*this, vdd, cell_hash::vth_popcount(seed_, cell_id));
  if (margin <= 0.0) return true;  // no read margin: certain flip
  return disturb_of(params_,
                    cell_hash::disturb_popcount(seed_, cell_id, epoch)) >
         margin;
}

bool SramCellModel::is_stuck(std::uint64_t cell_id) const {
  return cell_hash::is_stuck(seed_, cell_id, params_.stuck_cell_rate);
}

bool SramCellModel::settled_value(std::uint64_t cell_id, std::uint64_t epoch,
                                  double vdd, bool written) const {
  const bool preferred = cell_hash::preferred_bit(seed_, cell_id);
  // A stuck cell holds its preferred value no matter what was written or
  // how high the supply is.
  if (is_stuck(cell_id)) return preferred;
  if (written == preferred) return written;  // stable direction
  return flips(cell_id, epoch, vdd) ? preferred : written;
}

PhaseSettler::PhaseSettler(const SramCellModel& model, std::uint64_t epoch,
                           double vdd)
    : seed_(model.seed()),
      epoch_(epoch),
      stuck_rate_(model.params().stuck_cell_rate) {
  for (int k1 = 0; k1 <= 64; ++k1) {
    const double margin = margin_of(model, vdd, k1);
    int from = 0;  // no read margin: every disturbance flips
    if (margin > 0.0) {
      // Least k2 in [0, 65] with disturb_of(k2) > margin (65: none).
      int lo = 0;
      int hi = 65;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (disturb_of(model.params(), mid) > margin) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      from = lo;
    }
    flip_from_[static_cast<std::size_t>(k1)] =
        static_cast<std::uint8_t>(from);
  }
}

double SramCellModel::expected_error_rate(double vdd) const {
  // ΔVth takes the same 65 discrete values as the draw model, so the
  // expectation is an exact finite sum.
  const auto& pmf = binomial64_pmf();
  double acc = 0.0;
  for (int k = 0; k <= 64; ++k) {
    const double dvth =
        params_.sigma_vth * (static_cast<double>(k) - 32.0) / 4.0;
    acc += pmf[static_cast<std::size_t>(k)] * flip_probability(vdd, dvth);
  }
  // Half of random stored bits are anti-preferred.
  return 0.5 * acc;
}

}  // namespace cim::noise
