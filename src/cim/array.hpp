// Physical CIM array model (§III.B, Fig. 5(c)): a grid of weight windows
// (the paper evaluates 5 window-rows × 2 window-columns per array) sharing
// peripherals. Per cycle the window MUX enables one window column (odd or
// even clusters) and the cell MUX one parameter column inside the window;
// every window row then computes one MAC in parallel through its own adder
// tree.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cim/storage.hpp"
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

enum class Backend { kFast, kBitLevel };

/// A functional array: windows are independently writable; one cycle
/// computes window_rows MACs on the selected (window column, cell column).
class CimArray {
 public:
  CimArray(ArrayGeometry geometry, Backend backend,
           const noise::SramCellModel* model, std::uint64_t cell_base);

  const ArrayGeometry& geometry() const { return geometry_; }

  /// Access a window's storage (row-major window index).
  WeightStorage& window(std::uint32_t wrow, std::uint32_t wcol);
  const WeightStorage& window(std::uint32_t wrow, std::uint32_t wcol) const;

  /// One compute cycle: selects `wcol` via the window MUX and `cell_col`
  /// via the cell MUX, and returns the MAC of every window row.
  /// `inputs[wrow]` is that window's input bit-vector.
  std::vector<std::int64_t> cycle(
      std::uint32_t wcol, ColIndex cell_col,
      std::span<const std::vector<std::uint8_t>> inputs);

  /// Write-back every window (the periodic weight refresh), as one
  /// pooled StorageBatch.
  void write_back_all(const noise::SchedulePhase& phase);

  std::uint64_t compute_cycles() const { return compute_cycles_; }
  StorageCounters total_counters() const;

 private:
  std::size_t window_index(std::uint32_t wrow, std::uint32_t wcol) const;

  ArrayGeometry geometry_;
  std::vector<std::unique_ptr<WeightStorage>> windows_;
  /// Every window, planned once for write_back_all().
  std::optional<StorageBatch> refresh_;
  std::uint64_t compute_cycles_ = 0;
};

}  // namespace cim::hw
