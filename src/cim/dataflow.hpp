// Intra-/inter-array dataflow accounting (§III.B, Fig. 5(e)).
//
// The recurrent HNN update keeps spin state in the input registers: inside
// an array the register is shifted up to realign with the relocated
// windows when alternating between odd ("solid") and even ("dash") cluster
// updates; between arrays only the p boundary spin bits cross the edge —
// downstream for solid updates, upstream for dash updates. This tracker
// counts those events so the PPA model can charge them, and provides the
// check used in tests that nothing but edge data ever moves between
// arrays.
#pragma once

#include <cstdint>

namespace cim::hw {

enum class UpdateParity : std::uint8_t {
  kSolid = 0,  ///< odd cluster columns
  kDash = 1,   ///< even cluster columns
  /// The extra chromatic phase an odd-length ring needs for its last
  /// cluster (§III.A): neither a solid nor a dash column, it updates alone
  /// in a third cycle group and its boundary traffic is tallied
  /// separately so the solid/dash direction split stays faithful.
  kThird = 2,
};

class DataflowTracker {
 public:
  /// Register realignment when the update parity toggles, `times` times
  /// (a batch of identical updates tallied at once).
  void record_input_shift(std::uint32_t bits_shifted, std::uint64_t times = 1);

  /// Boundary transfer of `p` bits between ring-adjacent clusters, `times`
  /// times. Direction follows the parity: solid → downstream, dash →
  /// upstream, third-phase → its own tally.
  void record_edge_transfer(UpdateParity parity, std::uint32_t p_bits,
                            std::uint64_t times = 1);

  std::uint64_t input_shift_events() const { return shift_events_; }
  std::uint64_t input_bits_shifted() const { return bits_shifted_; }
  std::uint64_t downstream_transfers() const { return downstream_; }
  std::uint64_t upstream_transfers() const { return upstream_; }
  std::uint64_t third_phase_transfers() const { return third_phase_; }
  std::uint64_t edge_bits_transferred() const { return edge_bits_; }

  DataflowTracker& operator+=(const DataflowTracker& other);
  bool operator==(const DataflowTracker&) const = default;

 private:
  std::uint64_t shift_events_ = 0;
  std::uint64_t bits_shifted_ = 0;
  std::uint64_t downstream_ = 0;
  std::uint64_t upstream_ = 0;
  std::uint64_t third_phase_ = 0;
  std::uint64_t edge_bits_ = 0;
};

}  // namespace cim::hw
