// Compact weight-window geometry (§III.B, Fig. 3(c)).
//
// After clustering, a cluster's spins only interact with spins of the same
// cluster and the boundary spins of the two ring-adjacent clusters, so the
// dense (p·N)×(p·N) clustered matrix holds one valid (p²+2p)×p² block per
// cluster. The compact mapping stores exactly those blocks — O(N) memory.
//
// Row/column semantics for a window serving a cluster with `p` members,
// whose ring predecessor has `p_prev` and successor `p_next` members:
//
//   columns s ∈ [0, p²):        own spin (order s/p, member s%p) — one MAC
//                               column yields that spin's local energy;
//   rows r ∈ [0, p²):           own spins, same (order, member) encoding;
//   rows r ∈ [p², p²+p_prev):   predecessor boundary members (their spins
//                               at the predecessor's *last* order);
//   rows r ∈ [p²+p_prev, …+p_next): successor boundary members (spins at
//                               the successor's *first* order).
//
// A weight is non-zero only between spins at adjacent visiting orders.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace cim::hw {

using util::ColIndex;
using util::RowIndex;

struct WindowShape {
  std::uint32_t p = 0;       ///< own member count (cluster size)
  std::uint32_t p_prev = 0;  ///< predecessor boundary width
  std::uint32_t p_next = 0;  ///< successor boundary width

  std::uint32_t own_rows() const { return p * p; }
  std::uint32_t rows() const { return p * p + p_prev + p_next; }
  std::uint32_t cols() const { return p * p; }
  std::size_t weights() const {
    return static_cast<std::size_t>(rows()) * cols();
  }

  /// The paper's hardware window (both neighbours provisioned at p):
  /// (p²+2p) × p².
  static WindowShape hardware(std::uint32_t p_max) {
    return {p_max, p_max, p_max};
  }
};

/// Builds the golden (noise-free) weight image of a window from quantised
/// member distances.
class WindowBuilder {
 public:
  explicit WindowBuilder(WindowShape shape);

  const WindowShape& shape() const { return shape_; }

  /// Distance between own members a and b (8-bit quantised).
  void set_own_distance(std::uint32_t a, std::uint32_t b, std::uint8_t w);
  /// Distance from predecessor boundary member j to own member k.
  void set_prev_distance(std::uint32_t j, std::uint32_t k, std::uint8_t w);
  /// Distance from successor boundary member j to own member k.
  void set_next_distance(std::uint32_t j, std::uint32_t k, std::uint8_t w);

  /// Finalises the row-major rows()×cols() weight image: own-spin weights
  /// appear wherever visiting orders are adjacent; boundary weights appear
  /// in the first / last order columns.
  std::vector<std::uint8_t> build() const;
  /// The same image, written into `image` (shape().weights() entries).
  void build_into(std::span<std::uint8_t> image) const;

  /// Row/column index helpers (match the class comment). The tagged types
  /// keep the boundary-row address space from leaking into column MACs.
  RowIndex own_row(std::uint32_t order, std::uint32_t member) const {
    CIM_ASSERT(order < shape_.p && member < shape_.p);
    return RowIndex(order * shape_.p + member);
  }
  RowIndex prev_row(std::uint32_t j) const {
    CIM_ASSERT(j < shape_.p_prev);
    return RowIndex(shape_.own_rows() + j);
  }
  RowIndex next_row(std::uint32_t j) const {
    CIM_ASSERT(j < shape_.p_next);
    return RowIndex(shape_.own_rows() + shape_.p_prev + j);
  }
  ColIndex col(std::uint32_t order, std::uint32_t member) const {
    CIM_ASSERT(order < shape_.p && member < shape_.p);
    return ColIndex(order * shape_.p + member);
  }

 private:
  WindowShape shape_;
  std::vector<std::uint8_t> own_;    // p×p member distances
  std::vector<std::uint8_t> prev_;   // p_prev×p
  std::vector<std::uint8_t> next_;   // p_next×p
};

}  // namespace cim::hw
