#include "cim/array.hpp"

#include "util/error.hpp"

namespace cim::hw {

CimArray::CimArray(ArrayGeometry geometry, Backend backend,
                   const noise::SramCellModel* model,
                   std::uint64_t cell_base)
    : geometry_(geometry) {
  CIM_REQUIRE(geometry_.p_max >= 1, "array needs p_max >= 1");
  CIM_REQUIRE(geometry_.window_rows >= 1 && geometry_.window_cols >= 1,
              "array needs at least one window");
  const WindowShape shape = geometry_.window();
  const std::size_t n_windows =
      static_cast<std::size_t>(geometry_.window_rows) * geometry_.window_cols;
  windows_.reserve(n_windows);
  const std::uint64_t cells_per_window =
      static_cast<std::uint64_t>(shape.weights()) * geometry_.weight_bits;
  for (std::size_t w = 0; w < n_windows; ++w) {
    const std::uint64_t base = cell_base + w * cells_per_window;
    if (backend == Backend::kFast) {
      windows_.push_back(make_fast_storage(shape.rows(), shape.cols(), model,
                                           base, geometry_.weight_bits));
    } else {
      windows_.push_back(make_bit_level_storage(shape.rows(), shape.cols(),
                                                model, base,
                                                geometry_.weight_bits));
    }
  }
  std::vector<WeightStorage*> storages;
  storages.reserve(windows_.size());
  for (auto& w : windows_) storages.push_back(w.get());
  refresh_.emplace(storages);
}

std::size_t CimArray::window_index(std::uint32_t wrow,
                                   std::uint32_t wcol) const {
  CIM_ASSERT(wrow < geometry_.window_rows && wcol < geometry_.window_cols);
  return static_cast<std::size_t>(wrow) * geometry_.window_cols + wcol;
}

WeightStorage& CimArray::window(std::uint32_t wrow, std::uint32_t wcol) {
  return *windows_[window_index(wrow, wcol)];
}

const WeightStorage& CimArray::window(std::uint32_t wrow,
                                      std::uint32_t wcol) const {
  return *windows_[window_index(wrow, wcol)];
}

std::vector<std::int64_t> CimArray::cycle(
    std::uint32_t wcol, ColIndex cell_col,
    std::span<const std::vector<std::uint8_t>> inputs) {
  CIM_ASSERT(wcol < geometry_.window_cols);
  CIM_ASSERT(cell_col.get() < geometry_.window().cols());
  CIM_ASSERT(inputs.size() == geometry_.window_rows);
  std::vector<std::int64_t> results(geometry_.window_rows);
  for (std::uint32_t wrow = 0; wrow < geometry_.window_rows; ++wrow) {
    results[wrow] = window(wrow, wcol).mac(cell_col, inputs[wrow]);
  }
  ++compute_cycles_;
  return results;
}

void CimArray::write_back_all(const noise::SchedulePhase& phase) {
  refresh_->write_back(phase);
}

StorageCounters CimArray::total_counters() const {
  StorageCounters total;
  for (const auto& w : windows_) total += w->counters();
  return total;
}

}  // namespace cim::hw
