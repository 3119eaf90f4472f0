"""SIMD containment.

No file in the tree may use raw vector intrinsics. Every kernel is plain
C++ whose results the scalar determinism oracle pins bit for bit; an
intrinsic compiles only on one ISA and forks the kernel surface into a
variant no portable build or bit-identity test covers.
"""

from __future__ import annotations

import re

from .rules import FileContext, rule
from .tokenizer import line_of

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
    "raw SIMD intrinsic; write the kernel in portable C++",
    """No file may call raw vector intrinsics or include a vendor intrinsic
header. The repository's kernels are portable C++, and the storage and
annealer bit-identity tests pin each of them to the scalar determinism
oracle (DESIGN.md §9). An intrinsic compiles only on one ISA, so it
forks the kernel into a variant that no portable build and no
bit-identity test covers. No file is exempt: a kernel that needs data
parallelism writes plain word-wide C++ (std::popcount and friends) and
lets the compiler vectorize it. GCC accepts the intrinsic on the ISA it
targets, so only a build for another ISA would notice.""",
)
def _simd_intrinsics_confined(ctx: FileContext):
    msg = "raw SIMD intrinsic; write the kernel in portable C++"
    for m in _INTRIN_INCLUDE.finditer(ctx.directives):
        yield ctx.finding(line_of(ctx.directives, m.start()),
                          "simd-intrinsics-confined", msg)
    for m in _INTRINSIC.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()),
                          "simd-intrinsics-confined", msg)
