// Fixture: raw SIMD intrinsics
// (2 × simd-intrinsics-confined: the vendor include and the intrinsic
// call; the suppressed twin and the look-alike name stay silent).
#include <immintrin.h>  // expected: simd-intrinsics-confined
#include <cstdint>

namespace fixture {

std::uint64_t hand_rolled_popcount(const std::uint64_t* a, int n) {
  std::uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    total += _mm_popcnt_u64(a[i]);  // expected: simd-intrinsics-confined
  }
  return total;
}

// One-off ISA probe, vouched for on purpose.
// NOLINT(simd-intrinsics-confined)
std::uint64_t vouched_probe(std::uint64_t w) { return _mm_popcnt_u64(w); }

// Silent: an ordinary name that reads like a kernel is not an intrinsic.
std::uint64_t wrapper_call(std::uint64_t w) {
  const auto popcount_lsb = [](std::uint64_t x) { return x & 1; };
  return popcount_lsb(w);
}

}  // namespace fixture
