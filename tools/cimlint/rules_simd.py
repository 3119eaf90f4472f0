"""SIMD containment.

Raw vector intrinsics live in exactly one file: src/util/simd.hpp, the
dispatch layer that pairs every accelerated body with the portable
fallback the determinism oracle is checked against. An intrinsic at any
other site forks the kernel surface: it compiles only on one ISA, it
dodges the CIMANNEAL_PORTABLE_SIMD escape hatch the no-AVX2 CI leg
builds with, and its results are never covered by the bit-identity
sweep that pins the vector path to the scalar oracle.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .rules import FileContext, rule
from .tokenizer import line_of

# The dispatch layer itself — the only legitimate home for intrinsics.
SIMD_ALLOWFILE = PurePosixPath("src/util/simd.hpp")

# x86: _mm_/_mm256_/_mm512_ calls, vector register types, gcc builtins.
# ARM: NEON register types and the v<op>q_<lane> call family.
_INTRINSIC = re.compile(
    r"\b_mm\d*_[a-z0-9_]+\b"
    r"|\b__m(?:64|128|256|512)[a-z]*\b"
    r"|\b__builtin_ia32_[a-z0-9_]+\b"
    r"|\b(?:u?int|float|poly)(?:8|16|32|64)x\d+(?:x\d+)?_t\b"
    r"|\bv[a-z][a-z0-9_]*q_(?:[usfp](?:8|16|32|64))\b")

# Vendor intrinsic headers (strings kept: read from ctx.directives).
_INTRIN_INCLUDE = re.compile(
    r"#\s*include\s*[<\"]"
    r"(?:immintrin|x86intrin|[exptsnwa]mmintrin|avx\w*intrin|popcntintrin|"
    r"arm_neon|arm_sve)\.h[>\"]")


@rule(
    "simd-intrinsics-confined",
    "raw SIMD intrinsic outside src/util/simd.hpp; use the util::simd "
    "wrappers",
    """src/util/simd.hpp is the single dispatch point for vectorized
kernels: every accelerated body there is paired with a portable fallback,
selected at runtime behind cpu-feature checks, overridable with
CIMANNEAL_PORTABLE_SIMD / CIMANNEAL_DISABLE_SIMD, and pinned bit-for-bit
to the scalar determinism oracle by the storage and annealer test sweeps.

An intrinsic (or a vendor intrinsic header) anywhere else escapes all of
that: the no-AVX2 CI leg can't build it out, the portable-mode escape
hatch doesn't reach it, and nothing asserts its results match the scalar
path. Call the util::simd entry points (and_popcount, mac_bitplanes,
plane_popcounts, ...) instead; if a kernel needs a new primitive, add it
to simd.hpp with a portable twin and dispatch.""",
)
def _simd_intrinsics_confined(ctx: FileContext):
    if PurePosixPath(ctx.rel) == SIMD_ALLOWFILE:
        return
    msg = ("raw SIMD intrinsic outside src/util/simd.hpp; use the "
           "util::simd wrappers")
    for m in _INTRIN_INCLUDE.finditer(ctx.directives):
        yield ctx.finding(line_of(ctx.directives, m.start()),
                          "simd-intrinsics-confined", msg)
    for m in _INTRINSIC.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()),
                          "simd-intrinsics-confined", msg)
