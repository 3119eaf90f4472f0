"""Generic forward worklist dataflow solver over cfg.Cfg.

Its one client is the seed-provenance proof (flowfacts.py). A client
implements the `Client` protocol below: an entry state, a join (least
upper bound) and a per-statement transfer.

States are ordinary immutable-ish Python values compared with `==`;
`None` stands for bottom/unreachable, and clients never see it. The
worklist is ordered by reverse post-order so loops converge in few
passes.

Determinism: block order, RPO and the worklist are all derived from the
CFG's integer ids, so two runs over the same file produce bit-identical
fixpoints — the same bar the rest of cimlint holds itself to.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, Protocol

from .cfg import Cfg, Edge, Stmt

State = Any


class Client(Protocol):
    def entry_state(self) -> State: ...

    def join(self, a: State, b: State) -> State: ...

    def transfer(self, state: State, stmt: Stmt) -> State: ...


def solve(cfg: Cfg, client: Client) -> dict[int, State]:
    """Runs `client` to fixpoint; returns the in-state of every block,
    keyed by block id. Unreachable blocks are absent from the map."""
    order = cfg.rpo()
    pos = {block_id: k for k, block_id in enumerate(order)}
    out_edges: dict[int, list[Edge]] = {b.id: [] for b in cfg.blocks}
    for edge in cfg.edges:
        out_edges[edge.src].append(edge)

    ins: dict[int, State] = {cfg.entry: client.entry_state()}

    heap: list[tuple[int, int]] = [(pos[cfg.entry], cfg.entry)]
    queued = {cfg.entry}
    # Hard stop against non-convergence: a client whose transfer keeps
    # producing new states (an unbounded lattice) must degrade to
    # "function not analyzed" (callers catch ValueError), never hang the
    # lint run.
    budget = 256 * (len(cfg.blocks) + 4)
    steps = 0
    while heap:
        steps += 1
        if steps > budget:
            raise ValueError("dataflow solve did not converge "
                             f"within {budget} steps")
        _, block_id = heapq.heappop(heap)
        queued.discard(block_id)
        state = ins.get(block_id)
        if state is None:
            continue
        for stmt in cfg.blocks[block_id].stmts:
            state = client.transfer(state, stmt)
        for edge in out_edges[block_id]:
            old = ins.get(edge.dst)
            new = state if old is None else client.join(old, state)
            if old is not None and new == old:
                continue
            ins[edge.dst] = new
            if edge.dst not in queued and edge.dst in pos:
                queued.add(edge.dst)
                heapq.heappush(heap, (pos[edge.dst], edge.dst))
    return ins


def stmt_states(cfg: Cfg, client: Client, ins: dict[int, State]
                ) -> Iterator[tuple[Stmt, State]]:
    """(statement, state-before-it) pairs at the fixpoint, in block/
    statement order. Statements in unreachable blocks are skipped."""
    for block in cfg.blocks:
        state = ins.get(block.id)
        if state is None:
            continue
        for stmt in block.stmts:
            yield stmt, state
            state = client.transfer(state, stmt)
