#include "anneal/local_fields.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cim::anneal {

LocalFields::LocalFields(std::vector<Window> windows)
    : windows_(std::move(windows)) {
  CIM_ASSERT(!windows_.empty());
  std::size_t slots = 0;
  for (const Window& w : windows_) {
    CIM_ASSERT(w.pos->rows() == windows_.front().pos->rows());
    CIM_ASSERT(w.neg->cols() == w.pos->cols());
    offset_.push_back(slots);
    slots += w.pos->cols();
  }
  mac_.assign(slots, 0);
  row_sum_.assign(slots, 0);
  stamp_.assign(slots, 0);
}

std::span<std::int64_t> LocalFields::window_span(
    std::vector<std::int64_t>& values, std::size_t window) {
  return {values.data() + offset_[window], windows_[window].pos->cols()};
}

void LocalFields::rebuild(std::span<const std::uint8_t> sigma_plus) {
  // Rows with σ+ = 1 accumulate into mac_, the rest into row_sum_; adding
  // mac_ afterwards completes the all-rows sum.
  std::fill(mac_.begin(), mac_.end(), 0);
  std::fill(row_sum_.begin(), row_sum_.end(), 0);
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const std::span<std::int64_t> on = window_span(mac_, w);
    const std::span<std::int64_t> off = window_span(row_sum_, w);
    const std::uint32_t rows = windows_[w].pos->rows();
    CIM_ASSERT(sigma_plus.size() == rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
      const std::span<std::int64_t> acc = sigma_plus[r] ? on : off;
      windows_[w].pos->accumulate_row(hw::RowIndex(r), 1, acc);
      windows_[w].neg->accumulate_row(hw::RowIndex(r), -1, acc);
    }
    windows_[w].pos->charge_repeat_macs(windows_[w].pos->cols());
    windows_[w].neg->charge_repeat_macs(windows_[w].neg->cols());
  }
  for (std::size_t s = 0; s < mac_.size(); ++s) row_sum_[s] += mac_[s];
  ++generation_;
}

std::int64_t LocalFields::field(std::size_t window, std::uint32_t col) {
  windows_[window].pos->charge_repeat_macs(1);
  windows_[window].neg->charge_repeat_macs(1);
  const std::size_t slot = offset_[window] + col;
  if (stamp_[slot] == generation_) {
    ++hits_;
  } else {
    stamp_[slot] = generation_;
    ++misses_;
  }
  return 2 * mac_[slot] - row_sum_[slot];
}

void LocalFields::flip(std::uint32_t row, int delta) {
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const std::span<std::int64_t> acc = window_span(mac_, w);
    windows_[w].pos->accumulate_row(hw::RowIndex(row), delta, acc);
    windows_[w].neg->accumulate_row(hw::RowIndex(row), -delta, acc);
  }
  ++generation_;
}

}  // namespace cim::anneal
