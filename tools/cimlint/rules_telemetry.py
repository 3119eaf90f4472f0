"""Telemetry hygiene.

Instrumentation belongs in .cpp files. A TELEM_* macro in a public header
makes every includer pay for telemetry — it drags util/telemetry.hpp into
the include graph, couples header consumers to the build's telemetry
flavour, and hides emission sites from the module owner's review (the
header is compiled into dozens of targets, the .cpp into one).
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .rules import FileContext, rule
from .tokenizer import line_of

# The macro definitions themselves live here.
TELEMETRY_ALLOWLIST = {PurePosixPath("src/util/telemetry.hpp")}

_TELEM_MACRO = re.compile(r"\bTELEM_[A-Z_]+\s*\(")


@rule(
    "telemetry-in-header",
    "TELEM_* macro in a public header; instrument the .cpp instead",
    """TELEM_SCOPE / TELEM_COUNTER_ADD and friends expand to calls on the
global telemetry registry. Placed in a header they run (and cost) in
every translation unit that includes it, force util/telemetry.hpp into
the public include graph, and make the set of emission sites impossible
to audit from the implementation file. All shipped instrumentation sits
in .cpp files; headers stay telemetry-free so consumers can include them
without inheriting a dependency on the telemetry layer or its
compile-time flavour (CIMANNEAL_TELEMETRY). The compiler accepts the
macros anywhere, so the build stays green; the cost shows only as
slower compiles and as emission sites an audit of the .cpp files
misses.

src/util/telemetry.hpp itself — where the macros are defined — is
allowlisted. A header-only template that genuinely must emit events
carries NOLINT(telemetry-in-header) with a justification.""",
)
def _telemetry_in_header(ctx: FileContext):
    if not ctx.is_header or ctx.module() is None:
        return
    if PurePosixPath(ctx.rel) in TELEMETRY_ALLOWLIST:
        return
    for m in _TELEM_MACRO.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "telemetry-in-header",
                          "TELEM_* macro in a public header; instrument "
                          "the .cpp instead")
