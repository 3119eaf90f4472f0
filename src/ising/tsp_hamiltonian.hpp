// The TSP Hamiltonian of Eq. (3):
//
//   H = a Σ_{k≠l} Σ_i W_kl σ_ik σ_(i+1)l
//     + b Σ_i (Σ_k σ_ik − 1)²
//     + c Σ_k (Σ_i σ_ik − 1)²
//
// with σ_ik ∈ {0, 1} indicating "city k is visited at order i". This module
// materialises the full N²-spin formulation for small instances — it is the
// specification against which the compact clustered/windowed machinery is
// verified, and it demonstrates the O(N⁴) interaction blow-up that motivates
// the paper (Fig. 1).
//
// No solve path calls this module; it stays as the executable check of
// Eq. (3) and of the paper's 4-spin swap evaluation: ΔH of a swap equals
// the sum of four local energies, which is what the annealer's 4-MAC
// update computes (tests/test_ising_tsp_hamiltonian.cpp,
// TspHamiltonian.SwapDeltaViaLocalEnergies). Delete it only with that
// claim.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace cim::ising {

/// Binary spin assignment σ_ik, indexed spin_index = i * N + k.
class TspHamiltonian {
 public:
  struct Penalties {
    double a = 1.0;  ///< objective weight
    double b = 0.0;  ///< order one-hot penalty (0 → auto: 2·max W)
    double c = 0.0;  ///< city one-hot penalty (0 → auto: 2·max W)
  };

  explicit TspHamiltonian(const tsp::Instance& instance)
      : TspHamiltonian(instance, Penalties{}) {}
  TspHamiltonian(const tsp::Instance& instance, Penalties penalties);

  std::size_t cities() const { return n_; }
  std::size_t spins() const { return n_ * n_; }

  static std::size_t spin_index(std::size_t order, std::size_t city,
                                std::size_t n) {
    return order * n + city;
  }

  /// Full H over a binary assignment (size N²).
  double energy(std::span<const std::uint8_t> sigma) const;

  /// The objective term only (a=1): equals the tour length when sigma is a
  /// valid permutation assignment.
  double objective(std::span<const std::uint8_t> sigma) const;

  /// Constraint violation penalty (b+c terms, unweighted counts).
  double penalty(std::span<const std::uint8_t> sigma) const;

  /// Local spin energy H(σ_ik) of the objective coupling only — the MAC
  /// value the CIM hardware computes: σ_ik · Σ_l W_kl (σ_(i−1)l + σ_(i+1)l).
  double local_energy(std::span<const std::uint8_t> sigma, std::size_t order,
                      std::size_t city) const;

  /// Converts a tour into its one-hot assignment.
  std::vector<std::uint8_t> assignment_from_tour(const tsp::Tour& tour) const;

  /// Recovers a tour from a feasible assignment; throws if infeasible.
  tsp::Tour tour_from_assignment(std::span<const std::uint8_t> sigma) const;

  /// True iff both one-hot constraint families hold.
  bool feasible(std::span<const std::uint8_t> sigma) const;

  const Penalties& penalties() const { return penalties_; }

 private:
  const tsp::Instance& instance_;
  std::size_t n_ = 0;
  Penalties penalties_;
};

}  // namespace cim::ising
