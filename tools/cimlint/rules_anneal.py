"""Anneal hot-path rules (ported from the PR-2 lint)."""

from __future__ import annotations

import re

from .rules import FileContext, rule
from .tokenizer import line_of

# Full-vector input rebuilds (`input.assign(shape.rows(), 0)` and friends)
# in the annealer: the swap hot path iterates only the p + 2 set rows, so
# a dense rebuild there is an O(rows) regression hiding in plain sight.
_DENSE_REBUILD = re.compile(r"\.assign\s*\(\s*[\w.\->]*\brows\s*\(\)\s*,")


@rule(
    "anneal-dense-rebuild",
    "dense input rebuild in the anneal hot path; use the incremental "
    "sparse row list",
    """The 4-MAC swap evaluation is the hot path of every solve and its
input vector carries exactly p + 2 set bits. PR 2 made the kernel sparse
and incremental (persistent per-slot active-row lists, O(1) updates on
accept/revert); a dense `x.assign(rows(), 0)`-style rebuild inside
src/anneal/ reintroduces an O(rows) scan per swap — a quiet order-of-
magnitude regression at scale (DESIGN.md §9). No compiler, sanitizer or
test sees it: the dense and sparse kernels are bit-identical down to the
StorageCounters, so only the wall clock changes.

Intentional sites (the dense ablation kernel, one-time construction)
carry NOLINT(anneal-dense-rebuild) with a justification comment.""",
)
def _dense_rebuild(ctx: FileContext):
    if ctx.module() != "anneal":
        return
    for m in _DENSE_REBUILD.finditer(ctx.code):
        yield ctx.finding(
            line_of(ctx.code, m.start()), "anneal-dense-rebuild",
            "dense input rebuild in the anneal hot path; use the "
            "incremental sparse row list or suppress with "
            "NOLINT(anneal-dense-rebuild)")
