"""Header hygiene (ported from the PR-1 determinism lint)."""

from __future__ import annotations

import re

from .rules import FileContext, rule
from .tokenizer import line_of

_USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b", re.MULTILINE)
_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)


@rule(
    "hdr-using-namespace",
    "`using namespace` in a header leaks into every includer",
    """A namespace-scope `using namespace` in a header changes name lookup
in every translation unit that includes it, directly or transitively —
overload resolution can silently change in unrelated code. Qualify names
or use narrow using-declarations inside function bodies instead. GCC
has no warning for it; clang-tidy's google-build-using-namespace check
runs only where clang-tidy is installed.""",
)
def _using_namespace(ctx: FileContext):
    if not ctx.is_header:
        return
    for m in _USING_NAMESPACE.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "hdr-using-namespace",
                          "`using namespace` in a header leaks into every "
                          "includer")


@rule(
    "hdr-pragma-once",
    "header missing `#pragma once`",
    """Every header must start with `#pragma once` so double inclusion is
harmless. The repo standardises on the pragma (all supported compilers
honour it) rather than include guards, whose names drift when files
move. GCC does not warn about an unguarded header; a double include
surfaces only as a redefinition error in the first TU that happens to
include it twice.""",
)
def _pragma_once(ctx: FileContext):
    if not ctx.is_header:
        return
    if not _PRAGMA_ONCE.search(ctx.raw):
        yield ctx.finding(1, "hdr-pragma-once",
                          "header missing `#pragma once`")
