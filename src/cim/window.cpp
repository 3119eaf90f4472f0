#include "cim/window.hpp"

#include <algorithm>

namespace cim::hw {

WindowBuilder::WindowBuilder(WindowShape shape) : shape_(shape) {
  CIM_REQUIRE(shape_.p >= 1, "window needs at least one member");
  own_.assign(static_cast<std::size_t>(shape_.p) * shape_.p, 0);
  prev_.assign(static_cast<std::size_t>(shape_.p_prev) * shape_.p, 0);
  next_.assign(static_cast<std::size_t>(shape_.p_next) * shape_.p, 0);
}

void WindowBuilder::set_own_distance(std::uint32_t a, std::uint32_t b,
                                     std::uint8_t w) {
  CIM_ASSERT(a < shape_.p && b < shape_.p);
  own_[static_cast<std::size_t>(a) * shape_.p + b] = w;
  own_[static_cast<std::size_t>(b) * shape_.p + a] = w;
}

void WindowBuilder::set_prev_distance(std::uint32_t j, std::uint32_t k,
                                      std::uint8_t w) {
  CIM_ASSERT(j < shape_.p_prev && k < shape_.p);
  prev_[static_cast<std::size_t>(j) * shape_.p + k] = w;
}

void WindowBuilder::set_next_distance(std::uint32_t j, std::uint32_t k,
                                      std::uint8_t w) {
  CIM_ASSERT(j < shape_.p_next && k < shape_.p);
  next_[static_cast<std::size_t>(j) * shape_.p + k] = w;
}

std::vector<std::uint8_t> WindowBuilder::build() const {
  std::vector<std::uint8_t> image(shape_.weights());
  build_into(image);
  return image;
}

void WindowBuilder::build_into(std::span<std::uint8_t> image) const {
  CIM_ASSERT(image.size() == shape_.weights());
  const std::uint32_t p = shape_.p;
  std::fill(image.begin(), image.end(), std::uint8_t{0});
  const auto at = [&](RowIndex r, ColIndex c) -> std::uint8_t& {
    return image[static_cast<std::size_t>(r.get()) * shape_.cols() + c.get()];
  };

  // Own-spin couplings: member rk at order ri couples with member sk at
  // order si when |ri − si| == 1 (orders inside the cluster are a path;
  // the cyclic wrap happens through the neighbour clusters).
  for (std::uint32_t ri = 0; ri < p; ++ri) {
    for (std::uint32_t rk = 0; rk < p; ++rk) {
      for (std::uint32_t si = 0; si < p; ++si) {
        if (si + 1 != ri && ri + 1 != si) continue;
        for (std::uint32_t sk = 0; sk < p; ++sk) {
          if (sk == rk) continue;  // a member cannot neighbour itself
          at(own_row(ri, rk), col(si, sk)) =
              own_[static_cast<std::size_t>(rk) * p + sk];
        }
      }
    }
  }
  // Predecessor boundary couples with own order 0.
  for (std::uint32_t j = 0; j < shape_.p_prev; ++j) {
    for (std::uint32_t sk = 0; sk < p; ++sk) {
      at(prev_row(j), col(0, sk)) =
          prev_[static_cast<std::size_t>(j) * p + sk];
    }
  }
  // Successor boundary couples with own order p−1.
  for (std::uint32_t j = 0; j < shape_.p_next; ++j) {
    for (std::uint32_t sk = 0; sk < p; ++sk) {
      at(next_row(j), col(p - 1, sk)) =
          next_[static_cast<std::size_t>(j) * p + sk];
    }
  }
}

}  // namespace cim::hw
