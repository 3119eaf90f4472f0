// Portable data-parallel kernels for the bit-sliced CIM datapath.
//
// The bit-sliced Ising kernels (cim/bitslice.hpp, DESIGN.md §14) reduce a
// weight bit-plane against a packed 0/1 input vector: one 64-bit word
// carries 64 NOR-cell products, so the whole reduction is AND + popcount
// per word and a shift-and-add across planes. This header owns the three
// primitives that loop over packed words:
//
//   * and_popcount      — Σᵢ popcount(a[i] & b[i])
//   * mac_bitplanes     — Σ_b and_popcount(input, plane_b) << b
//   * plane_popcounts   — the per-plane sums (the AdderTree counter path)
//
// Backend policy: every function has a portable scalar-u64 body (already
// 64-way data-parallel — SIMD within a register). On x86-64 two
// accelerated bodies are compiled via `target(...)` function attributes
// and selected at runtime with __builtin_cpu_supports, so the build
// itself needs no -mavx2/-mpopcnt and stays runnable on any host: a
// `target("popcnt")` tier (baseline x86-64 lacks the popcnt instruction,
// so std::popcount otherwise lowers to a libgcc byte-table call — an
// order of magnitude per word) and a `target("avx2")` tier for long
// planes. On AArch64 a NEON body is compiled in directly (NEON is
// baseline there). All paths produce bit-identical results — popcounts
// are exact integer arithmetic — which is what lets the annealer's
// determinism contract span backends.
//
// CIMANNEAL_PORTABLE_SIMD (CMake: -DCIMANNEAL_DISABLE_SIMD=ON) forces the
// portable body everywhere; scripts/ci.sh runs the kernel test suite in
// that configuration to keep the fallback honest.
//
// Raw vector intrinsics are confined to this header by the cimlint rule
// `simd-intrinsics-confined`: every other file expresses data parallelism
// through these functions, so a new backend lands in exactly one place.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if !defined(CIMANNEAL_PORTABLE_SIMD)
#if defined(__x86_64__) && defined(__GNUC__)
#define CIMANNEAL_SIMD_X86_DISPATCH 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define CIMANNEAL_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace cim::util::simd {

inline std::uint64_t popcount64(std::uint64_t x) {
  return static_cast<std::uint64_t>(std::popcount(x));
}

namespace detail {

inline std::uint64_t and_popcount_portable(const std::uint64_t* a,
                                           const std::uint64_t* b,
                                           std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += popcount64(a[i] & b[i]);
  return acc;
}

#if defined(CIMANNEAL_SIMD_X86_DISPATCH)

inline bool have_avx2() {
  static const bool cached = __builtin_cpu_supports("avx2") != 0;
  return cached;
}

inline bool have_popcnt() {
  static const bool cached = __builtin_cpu_supports("popcnt") != 0;
  return cached;
}

/// Hardware-popcount bodies. Self-contained loops (a target-attribute
/// function only lowers its own body with the extended ISA, not inline
/// callees compiled elsewhere), duplicating the portable loops verbatim.
__attribute__((target("popcnt"))) inline std::uint64_t and_popcount_popcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return acc;
}

__attribute__((target("popcnt"))) inline std::uint64_t mac_bitplanes_popcnt(
    const std::uint64_t* input, const std::uint64_t* planes,
    std::uint32_t words, std::uint32_t bits) {
  std::uint64_t acc = 0;
  if (words == 1) {
    const std::uint64_t in = input[0];
    for (std::uint32_t b = 0; b < bits; ++b) {
      acc += static_cast<std::uint64_t>(std::popcount(in & planes[b])) << b;
    }
    return acc;
  }
  for (std::uint32_t b = 0; b < bits; ++b) {
    const std::uint64_t* plane = planes + static_cast<std::size_t>(b) * words;
    std::uint64_t sum = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      sum += static_cast<std::uint64_t>(std::popcount(input[w] & plane[w]));
    }
    acc += sum << b;
  }
  return acc;
}

__attribute__((target("popcnt"))) inline void plane_popcounts_popcnt(
    const std::uint64_t* input, const std::uint64_t* planes,
    std::uint32_t words, std::uint32_t bits, std::uint32_t* out) {
  for (std::uint32_t b = 0; b < bits; ++b) {
    const std::uint64_t* plane = planes + static_cast<std::size_t>(b) * words;
    std::uint64_t sum = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      sum += static_cast<std::uint64_t>(std::popcount(input[w] & plane[w]));
    }
    out[b] = static_cast<std::uint32_t>(sum);
  }
}

/// AVX2 body (Mula's nibble-LUT popcount): four words per step, the
/// per-byte counts accumulated with an 8-bit table lookup and summed via
/// _mm256_sad_epu8. Compiled with the target attribute so the rest of the
/// TU keeps the build's baseline ISA.
__attribute__((target("avx2"))) inline std::uint64_t and_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_and_si256(va, vb);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  std::uint64_t total =
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 0)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 1)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 2)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 3));
  for (; i < n; ++i) total += popcount64(a[i] & b[i]);
  return total;
}

#elif defined(CIMANNEAL_SIMD_NEON)

inline std::uint64_t and_popcount_neon(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    const uint8x16_t v = vreinterpretq_u8_u64(vandq_u64(va, vb));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  std::uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) total += popcount64(a[i] & b[i]);
  return total;
}

#endif

}  // namespace detail

/// The backend the word-loop kernels resolve to on this host. Purely
/// informational (reports / bench metadata): every backend returns
/// bit-identical values.
inline const char* backend() {
#if defined(CIMANNEAL_SIMD_X86_DISPATCH)
  if (detail::have_avx2()) return "avx2";
  if (detail::have_popcnt()) return "popcnt";
  return "portable";
#elif defined(CIMANNEAL_SIMD_NEON)
  return "neon";
#else
  return "portable";
#endif
}

/// Σᵢ popcount(a[i] & b[i]) over n packed words — one bit-plane of 14T
/// NOR products reduced to its sum. The vector bodies only pay off past a
/// few words; short inputs take the scalar loop directly.
inline std::uint64_t and_popcount(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n) {
#if defined(CIMANNEAL_SIMD_X86_DISPATCH)
  if (n >= 8 && detail::have_avx2()) {
    return detail::and_popcount_avx2(a, b, n);
  }
  if (detail::have_popcnt()) return detail::and_popcount_popcnt(a, b, n);
#elif defined(CIMANNEAL_SIMD_NEON)
  if (n >= 4) return detail::and_popcount_neon(a, b, n);
#endif
  return detail::and_popcount_portable(a, b, n);
}

/// Full bit-sliced MAC of one weight column: `planes` holds `bits`
/// contiguous bit-planes of `words` packed words each (LSB plane first),
/// `input` is the packed 0/1 row vector. Returns
/// Σ_b popcount(input & plane_b) << b — exactly the adder-tree
/// shift-and-add of the dense datapath.
inline std::uint64_t mac_bitplanes(const std::uint64_t* input,
                                   const std::uint64_t* planes,
                                   std::uint32_t words, std::uint32_t bits) {
#if defined(CIMANNEAL_SIMD_X86_DISPATCH)
  // Short planes (every hardware window below p = 22) are dominated by the
  // popcount itself, not the word loop — the popcnt tier wins there; long
  // planes route through and_popcount's AVX2 body below.
  if (words < 8 && detail::have_popcnt()) {
    return detail::mac_bitplanes_popcnt(input, planes, words, bits);
  }
#endif
  std::uint64_t acc = 0;
  if (words == 1) {
    // The common window sizes (p ≤ 7 ⇒ rows ≤ 63) fit one word; keep the
    // loop free of inner-loop setup.
    const std::uint64_t in = input[0];
    for (std::uint32_t b = 0; b < bits; ++b) {
      acc += popcount64(in & planes[b]) << b;
    }
    return acc;
  }
  for (std::uint32_t b = 0; b < bits; ++b) {
    acc += and_popcount(input, planes + static_cast<std::size_t>(b) * words,
                        words)
           << b;
  }
  return acc;
}

/// Per-plane product sums of one column — the same reduction as
/// mac_bitplanes but reported plane-by-plane, feeding
/// AdderTree::shift_and_add_sparse so the bit-level backend charges its
/// reduction counters identically on the packed path.
inline void plane_popcounts(const std::uint64_t* input,
                            const std::uint64_t* planes, std::uint32_t words,
                            std::uint32_t bits, std::uint32_t* out) {
#if defined(CIMANNEAL_SIMD_X86_DISPATCH)
  if (words < 8 && detail::have_popcnt()) {
    detail::plane_popcounts_popcnt(input, planes, words, bits, out);
    return;
  }
#endif
  for (std::uint32_t b = 0; b < bits; ++b) {
    out[b] = static_cast<std::uint32_t>(and_popcount(
        input, planes + static_cast<std::size_t>(b) * words, words));
  }
}

}  // namespace cim::util::simd
