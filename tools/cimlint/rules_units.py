"""Unit hygiene: steer PPA quantities onto the strong types.

The paper's tables mix picojoules, nanoseconds, square microns and
milliwatts; a pJ value flowing into an ns slot regenerates a wrong table
that still *looks* plausible. src/util/units.hpp provides tagged strong
types (Picojoule, Nanosecond, SquareMicron, Milliwatt) that turn such
mix-ups into compile errors — these rules keep new code from bypassing
them.
"""

from __future__ import annotations

import re

from .rules import FileContext, rule
from .tokenizer import line_of

# `double` declarations (return types, parameters, fields) whose
# identifier is unit-suffixed: *_pj, *_ns, *_um2, *_mw (or the bare
# suffix). These should be the strong types instead.
_RAW_DOUBLE = re.compile(r"\bdouble\s+([A-Za-z_]\w*)")
_UNIT_NAME = re.compile(r"(?:\w*_)?(?:pj|ns|um2|mw)", re.IGNORECASE)

# Raw float(ing-point) equality: a comparison with a floating literal on
# either side. Rounded results differ across optimisation levels and
# FMA availability, so exact comparison is a latent platform dependence.
_FLOAT_EQ = re.compile(
    r"[=!]=\s*[+-]?(?:\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)(?:[eE][+-]?\d+)?[fFlL]?"
    r"|(?:\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)(?:[eE][+-]?\d+)?[fFlL]?\s*[=!]="
)
_CMP_GUARD = re.compile(r"[<>=!]$")  # excludes <=, >=, ==, != prefixes


@rule(
    "unit-raw-double",
    "raw double with a unit-suffixed name in a header; use the strong type",
    """A header declaring `double energy_pj` (or *_ns, *_um2, *_mw — as a
parameter, field, or double-returning function) re-opens the door the
strong types closed: every caller must remember the unit, and a pJ↔ns
transposition compiles silently. Declare the quantity as
util::Picojoule / util::Nanosecond / util::SquareMicron / util::Milliwatt
(src/util/units.hpp) instead; conversions to raw doubles are explicit
(.value(), .joules(), .seconds(), ...) and live at I/O boundaries only.
The compiler accepts a pJ↔ns transposition between raw doubles; only the
strong types turn it into an error, and this rule keeps headers on
them.

The rule scans headers because signatures are where unit contracts live;
.cpp-local doubles are implementation detail.""",
)
def _raw_double(ctx: FileContext):
    if not ctx.is_header:
        return
    for m in _RAW_DOUBLE.finditer(ctx.code):
        name = m.group(1)
        if _UNIT_NAME.fullmatch(name):
            yield ctx.finding(
                line_of(ctx.code, m.start()), "unit-raw-double",
                f"'double {name}' carries a unit in its name; declare it "
                "as the strong type from util/units.hpp (Picojoule / "
                "Nanosecond / SquareMicron / Milliwatt) so unit mix-ups "
                "fail to compile")


@rule(
    "unit-float-eq",
    "exact ==/!= against a floating-point literal",
    """`x == 0.05` on doubles is a latent platform dependence: the left
side is the result of rounded arithmetic that can differ in the last ulp
across compilers, optimisation levels and FMA contraction — and the
repo's comparability argument rests on bit-stable behaviour everywhere.
GCC's -Wfloat-equal would flag it, but neither -Wall nor -Wextra
enables it, and the build does not turn it on.
Compare against an explicit tolerance, restructure to integer/ordinal
comparison, or — for genuine sentinel checks like `rate == 0.0` guarding
a division — keep the comparison and justify it with
NOLINT(unit-float-eq).""",
)
def _float_eq(ctx: FileContext):
    for m in _FLOAT_EQ.finditer(ctx.code):
        # Reject <=, >=, === (none in C++ but cheap to guard), and
        # relational operators picked up by the literal-on-left branch.
        if m.start() > 0 and _CMP_GUARD.match(ctx.code[m.start() - 1]):
            continue
        yield ctx.finding(
            line_of(ctx.code, m.start()), "unit-float-eq",
            "exact floating-point ==/!= against a literal; compare with a "
            "tolerance or justify a sentinel check with "
            "NOLINT(unit-float-eq)")
