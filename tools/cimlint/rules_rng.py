"""RNG discipline (ported from the PR-1 determinism lint).

Annealer results are only comparable when runs are bit-reproducible, so
all randomness must flow through the seeded cim::util::Rng (xoshiro256++
over splitmix64). These rules make the discipline mechanical.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .rules import FileContext, rule
from .tokenizer import line_of

# Files allowed to own raw PRNG machinery. Everything else must go through
# cim::util::Rng.
RNG_ALLOWLIST = {
    PurePosixPath("src/util/random.hpp"),
    PurePosixPath("src/util/random.cpp"),
}

_RANDOM_DEVICE = re.compile(r"\bstd\s*::\s*random_device\b")
_LIBC_RAND = re.compile(r"(?<![\w:])s?rand(_r)?\s*\(")
_TIME_SEED = re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)")
_MT19937 = re.compile(r"\bmt19937(_64)?\b")


@rule(
    "rng-random-device",
    "std::random_device is non-deterministic; seed cim::util::Rng explicitly",
    """std::random_device pulls entropy from the OS, so two runs with the
same configuration produce different numbers — which breaks the
bit-reproducibility every benchmark comparison in this repo rests on
(same seed → same tour, on every platform). No compiler or sanitizer
flags it; a test catches it only by comparing two runs of the affected
path.

Thread seeds through the API instead: construct a cim::util::Rng from an
explicit 64-bit seed, and derive per-component streams with
util::stream_seed().""",
)
def _random_device(ctx: FileContext):
    for m in _RANDOM_DEVICE.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "rng-random-device",
                          "std::random_device is non-deterministic; seed "
                          "cim::util::Rng explicitly")


@rule(
    "rng-libc-rand",
    "libc rand()/srand() has hidden global state; use cim::util::Rng",
    """libc rand() draws from one hidden global stream: any library call
may advance it behind your back, its algorithm differs across platforms,
and srand() makes ordering between components significant. All three
properties break reproducibility. Draw from a locally owned, explicitly
seeded cim::util::Rng instead. GCC accepts rand() without a warning,
and the determinism tests pass for as long as the call order happens
to stay fixed.""",
)
def _libc_rand(ctx: FileContext):
    for m in _LIBC_RAND.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "rng-libc-rand",
                          "libc rand()/srand() has hidden global state; use "
                          "cim::util::Rng")


@rule(
    "rng-time-seed",
    "wall-clock seeding breaks reproducibility; pass seeds explicitly",
    """time(nullptr) as an entropy source means every run uses a different
seed, so no experiment can be re-run bit-identically. Seeds are part of
the experiment configuration in this repo: accept them on the command
line / config struct and record them in reports. No compiler or
sanitizer flags a time-based seed; a test notices only by comparing
two runs made at different times.""",
)
def _time_seed(ctx: FileContext):
    for m in _TIME_SEED.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "rng-time-seed",
                          "wall-clock seeding breaks reproducibility; pass "
                          "seeds explicitly")


@rule(
    "rng-mt19937",
    "std::mt19937 is banned outside src/util/random.*; use cim::util::Rng",
    """std::mt19937 itself is standardised, but the *distributions* wrapped
around it (uniform_int_distribution etc.) are implementation-defined —
the same seed yields different sequences on libstdc++ and libc++. The
repo's xoshiro256++ Rng with its own distribution code is identical
everywhere. Only src/util/random.{hpp,cpp} may mention mt19937 (for
comparison tests). The compiler cannot see the difference and the tests
on one standard library pass; the sequences diverge only on another.""",
)
def _mt19937(ctx: FileContext):
    if PurePosixPath(ctx.rel) in RNG_ALLOWLIST:
        return
    for m in _MT19937.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "rng-mt19937",
                          "std::mt19937 is banned outside src/util/random.*; "
                          "use cim::util::Rng")
