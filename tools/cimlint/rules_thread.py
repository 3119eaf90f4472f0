"""Parallel-runtime discipline.

All threading must flow through the persistent open-batch pool in
src/util/thread_pool.hpp (plus the parallel_for_chunks wrapper layered
on it). Raw std::thread at a call site reintroduces exactly the
per-epoch spawn/join churn the pool was built to kill, bypasses the
pool's deterministic lowest-index exception contract, and dodges the
threads_created() accounting the benches use to prove hot loops spawn
nothing.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .rules import FileContext, rule
from .tokenizer import line_of

# The runtime itself may (must) own raw threads.
THREAD_ALLOWDIR = PurePosixPath("src/util")

# Negative lookahead: std::thread::id and friends are inert handle types,
# not thread creation — only the class itself (ctor) spawns.
_RAW_THREAD = re.compile(r"\bstd\s*::\s*j?thread\b(?!\s*::)")


@rule(
    "raw-thread",
    "std::thread outside src/util/; run on util::ThreadPool instead",
    """Spawning std::thread at a call site costs ~50 µs per thread and, in
a loop, dwarfs the work it parallelises — the annealer's colour-parallel
epochs lost their sparse-kernel speedup to exactly this churn before the
pool existed. Raw threads also skip the runtime's contracts: the
deterministic lowest-index exception rethrow, the waiting-submitter
nested-submit guarantee, and the threads_created() counter benches use to
assert hot loops create nothing.

Use util::ThreadPool::shared() (or a locally sized pool) with run() or
parallel_for_chunks. Only src/util/ — the runtime itself —
may construct std::thread. Legitimate exceptions (e.g. a test that needs
an out-of-pool driver thread, or a bench measuring the spawn baseline
itself) carry NOLINT(raw-thread) with a justification.""",
)
def _raw_thread(ctx: FileContext):
    if THREAD_ALLOWDIR in PurePosixPath(ctx.rel).parents:
        return
    for m in _RAW_THREAD.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()), "raw-thread",
                          "std::thread outside src/util/; run on "
                          "util::ThreadPool instead")
