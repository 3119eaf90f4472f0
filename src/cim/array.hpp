// Physical CIM array geometry (§III.B, Fig. 5(c)): a grid of weight
// windows (the paper evaluates 5 window-rows × 2 window-columns per array)
// sharing peripherals. Per cycle the window MUX enables one window column
// (odd or even clusters) and the cell MUX one parameter column inside the
// window; every window row then computes one MAC in parallel through its
// own adder tree. The chip plan, the PPA model and the Table II bench
// size arrays from it; each window's behaviour is a WeightStorage.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cim/window.hpp"

namespace cim::hw {

struct ArrayGeometry {
  std::uint32_t p_max = 3;
  std::uint32_t window_rows = 5;   ///< windows stacked vertically
  std::uint32_t window_cols = 2;   ///< windows muxed horizontally
  std::uint32_t weight_bits = 8;

  WindowShape window() const { return WindowShape::hardware(p_max); }
  /// Physical cell rows (windows share rows across a window row).
  std::uint32_t cell_rows() const { return window_rows * window().rows(); }
  /// Physical bit-cell columns (each weight is weight_bits cells wide).
  std::uint32_t cell_cols() const {
    return window_cols * window().cols() * weight_bits;
  }
  std::size_t weights() const {
    return static_cast<std::size_t>(window_rows) * window_cols *
           window().weights();
  }
  std::size_t bits() const { return weights() * weight_bits; }
};

}  // namespace cim::hw
