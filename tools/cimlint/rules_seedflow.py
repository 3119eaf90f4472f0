"""RNG seed-flow proofs: every reachable seeding site must show lineage.

PR 6's det-taint walked the call graph looking for two known-bad RNG
sources (std::random_device, rand). A blacklist proves nothing about
the sites it does not match: `Rng rng(some_local_arithmetic)` passes it
while silently splitting the determinism contract per worker. This pack
inverts the burden of proof. Every RNG construction / reseed inside a
function reachable from a CIM_DETERMINISM_ROOT must *prove* that its
seed expression derives from the deterministic chain of
src/util/random.hpp — util::stream_seed, util::hash_combine,
util::splitmix64, Rng::fork, integer literals, seed-named values — via
the intraprocedural provenance dataflow in flowfacts.py. What cannot be
proven is reported, with the witness call chain from the root.

Boundary assumptions (stated in flowfacts.py): function parameters are
trusted at entry — the call site is checked in its own enclosing
function — and the derive functions propagate provenance through their
first argument (the base; the second operand is a stream selector or
mixing constant). det-taint covers the other non-deterministic sources
(clocks, thread ids, unordered containers, pointer hashing) through the
same call graph.
"""

from __future__ import annotations

from typing import Iterable

from .callgraph import CallGraph
from .findings import Finding
from .index import ProjectIndex
from .rules import LintConfig, project_rule


@project_rule(
    "rng-unproven-seed",
    "RNG seeding site reachable from a determinism root cannot prove "
    "its seed derives from the deterministic chain",
    """Replaces det-taint's unseeded-rng blacklist with a provenance
proof. The index computes, per function, a seed-provenance dataflow
over its CFG: a value is *proven* when it is an integer literal, a
seed-named identifier (`config_.seed`, `level_stream`), a function
parameter (the boundary assumption — call sites are checked in their
own functions), `Rng::fork()`, or one of util::stream_seed /
util::hash_combine / util::splitmix64 applied to a proven base. The
must-analysis join means a variable seeded on only one branch is not
proven. This proof is the only check that an RNG seed reachable from a
CIM_DETERMINISM_ROOT comes from the config seed chain: det-taint does
not look at RNG sources, and no compiler or sanitizer tracks where a
seed came from.

This rule then walks the name-resolved call graph from every
CIM_DETERMINISM_ROOT and reports each RNG construction, `reseed()`
call, or append into an RNG container whose seed expression the proof
cannot derive — with the witness chain from the root, so the reviewer
sees *which* hot path reaches the unproven seed.

A true positive is fixed by threading the seed through
util::stream_seed(base, stream) (stateless, worker-count independent)
instead of ad-hoc arithmetic or environment-dependent values. A
reviewed-and-deliberate site (e.g. a bench warmup RNG) carries a
NOLINT(rng-unproven-seed) with a justification.""",
)
def _rng_unproven_seed(index: ProjectIndex, _config: LintConfig
                       ) -> Iterable[Finding]:
    graph = CallGraph(index)
    reported: set[tuple[str, int, str]] = set()
    for root, func, chain in graph.reachable_functions():
        for site in func.flow.seed_sites:
            if site.proven:
                continue
            mark = (func.path, site.line, site.rng)
            if mark in reported:
                continue
            reported.add(mark)
            witness = " -> ".join(chain)
            yield Finding(
                path=func.path, line=site.line, rule="rng-unproven-seed",
                message=f"RNG '{site.rng}' seeded from an unproven "
                        f"source ({site.detail}); reachable from "
                        f"determinism root {root.qual_name}; "
                        f"witness: {witness}")
