"""Determinism-taint: no hot path may reach a non-deterministic source.

The repo's headline runtime contract is bit-identical trajectories for a
given seed on any worker count (DESIGN.md §11–12). The per-file rules
catch *local* violations (raw std::thread, ad-hoc RNG construction);
this pack catches the transitive ones: a hot-loop function calls a
helper calls a utility that quietly reads the wall clock or iterates an
unordered container, and the non-determinism is three frames away from
the code a reviewer looked at.

Roots are declared in the source with the CIM_DETERMINISM_ROOT marker
(src/util/thread_annotations.hpp): the annealer epoch loops and swap
kernels, the replica-ensemble reduction, and the thread-pool task
execution paths (which cover every submitted task body). The rule walks
the name-resolved call graph from each root and reports every reachable
taint site with the witness chain, so the finding reads as a path a
human can check, not a bare accusation.
"""

from __future__ import annotations

from typing import Iterable

from .callgraph import CallGraph
from .findings import Finding
from .index import ProjectIndex
from .rules import LintConfig, project_rule


@project_rule(
    "det-taint",
    "non-deterministic source reachable from a CIM_DETERMINISM_ROOT "
    "hot path",
    """Functions marked CIM_DETERMINISM_ROOT (the annealer epoch loops,
swap kernels, replica-ensemble reduction and thread-pool task bodies)
must produce bit-identical results for a given seed on any worker count.
This rule indexes every first-party TU, builds a name-resolved call
graph, and reports any path from a root to a determinism-taint source:

  * wall-clock reads (std::chrono ::now, gettimeofday, clock_gettime,
    time(nullptr));
  * thread identity as a value (std::this_thread::get_id, pthread_self);
  * unordered-container use (iteration order is unspecified and varies
    across libstdc++ versions and address-space layouts);
  * pointer values used as data (std::hash over pointers,
    reinterpret_cast to [u]intptr_t).

RNG seeding is checked by rng-unproven-seed (every reachable seed must
prove its lineage) and the per-file rng-* bans (std::random_device,
rand/srand, time seeds, std::mt19937), not by this rule.

No sanitizer reports any of these sources: ThreadSanitizer sees a
wall-clock read or an unordered-container walk as race-free, and the
thread-count bit-identity tests catch a taint only when it changes a
result on the inputs they happen to run.

The finding carries the witness call chain from the root to the source
so the path can be audited by eye. Resolution is by name and therefore
over-approximate (DESIGN.md §13): a same-named function on an unrelated
class can create a false edge, and unordered-container *lookups* (which
are deterministic) are flagged alongside iteration. Reviewed sites —
observability-only timestamps, lookup-only hash maps — carry a
NOLINT(det-taint) with a justification at the taint site.""",
)
def _det_taint(index: ProjectIndex, _config: LintConfig
               ) -> Iterable[Finding]:
    graph = CallGraph(index)
    for f in graph.reachable_taints():
        chain = " -> ".join(f.chain)
        yield Finding(
            path=f.sink.path, line=f.site.line, rule="det-taint",
            message=f"{f.site.detail} reachable from determinism root "
                    f"{f.root.qual_name}; witness: {chain}")
