#include "cim/dataflow.hpp"

namespace cim::hw {

void DataflowTracker::record_input_shift(std::uint32_t bits_shifted,
                                         std::uint64_t times) {
  shift_events_ += times;
  bits_shifted_ += times * bits_shifted;
}

void DataflowTracker::record_edge_transfer(UpdateParity parity,
                                           std::uint32_t p_bits,
                                           std::uint64_t times) {
  switch (parity) {
    case UpdateParity::kSolid:
      downstream_ += times;
      break;
    case UpdateParity::kDash:
      upstream_ += times;
      break;
    case UpdateParity::kThird:
      third_phase_ += times;
      break;
  }
  edge_bits_ += times * p_bits;
}

DataflowTracker& DataflowTracker::operator+=(const DataflowTracker& other) {
  shift_events_ += other.shift_events_;
  bits_shifted_ += other.bits_shifted_;
  downstream_ += other.downstream_;
  upstream_ += other.upstream_;
  third_phase_ += other.third_phase_;
  edge_bits_ += other.edge_bits_;
  return *this;
}

}  // namespace cim::hw
