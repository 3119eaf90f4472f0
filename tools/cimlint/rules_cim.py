"""Counter-charge enforcement for the CIM hardware model.

The PPA tables are only as honest as the hardware counters: every energy
and latency number is derived from StorageCounters / AdderTree counters,
so a function that models a hardware access without charging a counter
silently cheapens the chip (DESIGN.md §9, "Same counters"). This rule
mechanizes the invariant: any function under src/cim/ whose body reads
weight cells or drives the adder tree must also touch a hardware counter,
or carry NOLINT(cim-counter-charge) with a justification.
"""

from __future__ import annotations

import re

from .functions import function_blocks
from .rules import FileContext, rule
from .tokenizer import line_of

# Hardware accesses that must be charged: weight-cell reads/writes via the
# backend arrays, and adder-tree drives from outside the tree.
_ACCESS = re.compile(
    r"\bstored_\s*\[|\bcurrent_\s*\[|\.\s*shift_and_add(?:_sparse)?\s*\(|"
    r"\btree_\s*\.\s*reduce\s*\(")

# Touching any hardware counter counts as charging: the storage counter
# struct (counters_) or the adder tree's own tallies.
_CHARGE = re.compile(r"\bcounters_\b|\badder_ops_\b|\breductions_\b")


@rule(
    "cim-counter-charge",
    "function models a hardware access without charging the counters",
    """StorageCounters model hardware row *reads*, not simulator work: a
MAC pseudo-reads every cell of the addressed column on real silicon, so
the counters must advance identically on every code path that models an
array access — dense or sparse, fast or bit-level backend — or the PPA
energy/latency tables drift away from the hardware they claim to
describe (the PR-2 counter-equivalence invariant, DESIGN.md §9).

The rule flags any function under src/cim/ whose body reads weight cells
(stored_[...] / current_[...]) or drives the adder tree
(.shift_and_add(...) / tree_.reduce(...)) without touching a hardware
counter (counters_, adder_ops_, reductions_). No compiler or sanitizer
can see a missing charge, because the computed values are the same
either way; the counter-equivalence tests compare only the code paths
that already exist.

Genuine non-hardware accesses — debug accessors, golden-image installs,
manufacturing-fault application — carry NOLINT(cim-counter-charge) with
a one-line justification of why no hardware event occurs.""",
)
def _counter_charge(ctx: FileContext):
    if ctx.module() != "cim":
        return
    for block in function_blocks(ctx.code):
        access = _ACCESS.search(block.body)
        if access is None:
            continue
        if _CHARGE.search(block.body):
            continue
        # Report at the function's opening line so the NOLINT lives next
        # to the signature, where reviewers read justifications.
        yield ctx.finding(
            line_of(ctx.code, block.start),
            "cim-counter-charge",
            f"'{block.name}' (first uncharged access at line "
            f"{line_of(ctx.code, block.start + 1 + access.start())}) reads "
            "storage rows or drives the adder tree but never touches a "
            "hardware counter; charge StorageCounters / the tree tallies, "
            "or justify with NOLINT(cim-counter-charge)")
