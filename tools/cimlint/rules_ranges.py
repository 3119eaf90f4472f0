"""Value-range analysis: storage indices vs extents, dead range checks.

The >256-row faithfulness bug (PR 2) was an index aliasing a window
extent; strong RowIndex/ColIndex types stop *unit* confusion but not
*magnitude* bugs — a `<=` where a `<` was meant still walks one column
past the end. This pack runs an interval dataflow over each function's
CFG (widening at loop heads, branch-condition refinement on the edges)
and checks it against storage extents discovered in the same file:

  * `index-range-overflow` — a mac/mac_sparse/weight call
    whose index argument's derived range provably escapes [0, extent).
    Only *proven* violations fire: a TOP range (runtime-sized storage,
    unanalyzable arithmetic) is silent, so the real tree stays quiet
    and every finding is actionable.
  * `index-check-dead` — an `if` range check that the intervals decide
    at compile time (always true / always false). A dead guard is
    either a vestigial double check or — worse — a bounds check written
    after the access it was meant to protect; either way the control
    flow is not doing what it reads as doing. Loop conditions are
    exempt (they are *supposed* to go false eventually), as are
    degenerate single-value ranges (constant folding is not a bug).

Extents come from direct `FooStorage s(R, C, ...)` declarations and
`make_*storage(R, C, ...)` factory assignments with literal dimensions
in the analyzed function's file. `s.rows()` / `s.cols()` evaluate to
those extents, so `for (i = 0; i <= s.cols(); ++i)` is caught as the
off-by-one it is.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from .cfg import Cfg, Edge, Stmt, _split_args, build_cfg
from .dataflow import branch_edges, solve, stmt_states
from .findings import Finding
from .flowfacts import _find_assignment
from .functions import function_blocks
from .rules import FileContext, rule

INF = math.inf

Range = tuple[float, float]
State = dict[str, Range]

# ------------------------------------------------------------- extents

_STORAGE_DECL_RE = re.compile(
    r"\b[A-Za-z_]\w*Storage\s+([A-Za-z_]\w*)\s*[({]")
_FACTORY_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*(?:[\w:]+\s*::\s*)?"
    r"(make_\w*storage\w*)\s*\(")
_INT_RE = re.compile(r"\d+")


def _literal(text: str) -> int | None:
    text = text.strip()
    return int(text) if _INT_RE.fullmatch(text) else None


def _balanced_inner(text: str, open_at: int) -> str:
    close = {"(": ")", "{": "}"}[text[open_at]]
    depth = 0
    for j in range(open_at, len(text)):
        if text[j] == text[open_at]:
            depth += 1
        elif text[j] == close:
            depth -= 1
            if depth == 0:
                return text[open_at + 1:j]
    return text[open_at + 1:]


def _extents(code: str) -> dict[str, tuple[int, int]]:
    """storage variable -> (rows, cols), for declarations/factory calls
    with literal dimensions. Conflicting re-declarations drop the var."""
    out: dict[str, tuple[int, int]] = {}
    dropped: set[str] = set()

    def record(var: str, args: list[str]) -> None:
        if len(args) < 2:
            return
        rows, cols = _literal(args[0]), _literal(args[1])
        if rows is None or cols is None:
            return
        if var in dropped:
            return
        if var in out and out[var] != (rows, cols):
            del out[var]
            dropped.add(var)
            return
        out[var] = (rows, cols)

    for m in _STORAGE_DECL_RE.finditer(code):
        record(m.group(1), _split_args(
            _balanced_inner(code, m.end() - 1)))
    for m in _FACTORY_RE.finditer(code):
        record(m.group(1), _split_args(
            _balanced_inner(code, m.end() - 1)))
    return out


# ------------------------------------------------------ interval client

_INCDEC_RE = re.compile(
    r"^(?:(\+\+|--)\s*([A-Za-z_]\w*)|([A-Za-z_]\w*)\s*(\+\+|--))$")
_INDEX_CTOR_RE = re.compile(
    r"^(?:[\w:]+\s*::\s*)?(?:RowIndex|ColIndex)\s+([A-Za-z_]\w*)"
    r"\s*[({](.*)[)}]$", re.DOTALL)
_CAST_RE = re.compile(r"^static_cast\s*<[^()]*>\s*\((.*)\)$", re.DOTALL)
_INDEX_WRAP_RE = re.compile(
    r"^(?:[\w:]+\s*::\s*)?(?:RowIndex|ColIndex)\s*[({](.*)[)}]$",
    re.DOTALL)
_DIM_CALL_RE = re.compile(
    r"^([A-Za-z_]\w*)\s*(?:\.|->)\s*(rows|cols)\s*\(\s*\)$")
_VALUE_CALL_RE = re.compile(
    r"^([A-Za-z_]\w*)\s*(?:\.|->)\s*value\s*\(\s*\)$")
_IDENT_PATH_RE = re.compile(
    r"^[A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*[A-Za-z_]\w*)*$")
_LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def _strip_parens(expr: str) -> str:
    expr = expr.strip()
    while expr.startswith("(") and expr.endswith(")"):
        depth = 0
        for i, ch in enumerate(expr):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(expr) - 1:
                    return expr
        expr = expr[1:-1].strip()
    return expr


def _split_additive(expr: str) -> list[tuple[str, str]]:
    """[(sign, operand)] at top level for + and - (unary folded in)."""
    parts: list[tuple[str, str]] = []
    depth = 0
    start = 0
    sign = "+"
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and ch in "+-" and not expr.startswith("->", i):
            if expr[:i].strip():
                parts.append((sign, expr[start:i].strip()))
                sign = ch
                start = i + 1
        i += 1
    parts.append((sign, expr[start:].strip()))
    return [p for p in parts if p[1]]


class _IntervalClient:
    """Intervals over integer-ish locals; missing key == TOP."""

    def __init__(self, extents: dict[str, tuple[int, int]]):
        self.extents = extents
        # id -> (stmts, assigned vars). The list itself is kept in the
        # value so its id cannot be recycled for a different loop's list
        # after garbage collection — the client outlives many solve()
        # calls (one per function in the file).
        self._loop_vars: dict[int, tuple[object, set[str]]] = {}

    def entry_state(self) -> State:
        return {}

    def join(self, a: State, b: State) -> State:
        out: State = {}
        for k in a.keys() & b.keys():
            out[k] = (min(a[k][0], b[k][0]), max(a[k][1], b[k][1]))
        return out

    def widen(self, old: State, new: State,
              loop_stmts: "list[Stmt] | None" = None) -> State:
        # Only variables the loop itself assigns can diverge through its
        # back edge; everything else (an outer counter, a loop-invariant
        # bound) is converging and keeps the plain join — widening it
        # here would stick at ±inf, out of narrowing's reach.
        unstable = self._assigned_in(loop_stmts)
        out: State = {}
        for k in old.keys() & new.keys():
            lo, hi = min(old[k][0], new[k][0]), max(old[k][1], new[k][1])
            if unstable is None or k in unstable:
                lo = old[k][0] if new[k][0] >= old[k][0] else -INF
                hi = old[k][1] if new[k][1] <= old[k][1] else INF
            out[k] = (lo, hi)
        return out

    def _assigned_in(self, loop_stmts: "list[Stmt] | None"
                     ) -> set[str] | None:
        if loop_stmts is None:
            return None
        key = id(loop_stmts)
        cached = self._loop_vars.get(key)
        if cached is not None and cached[0] is loop_stmts:
            return cached[1]
        assigned: set[str] = set()
        for stmt in loop_stmts:
            text = " ".join(stmt.text.split())
            m = _INCDEC_RE.match(text)
            if m:
                assigned.add(m.group(2) or m.group(3))
                continue
            m = _INDEX_CTOR_RE.match(text)
            if m:
                assigned.add(m.group(1))
                continue
            found = _find_assignment(text)
            if found is None:
                continue
            eq, compound = found
            lhs = text[:eq - 1] if compound else text[:eq]
            last = _LAST_IDENT_RE.search(lhs)
            if last is not None:
                assigned.add(last.group(1))
        self._loop_vars[key] = (loop_stmts, assigned)
        return assigned

    # -- expression evaluation

    def eval(self, expr: str, state: State) -> Range | None:
        expr = _strip_parens(" ".join(expr.split()))
        if not expr:
            return None
        if _INT_RE.fullmatch(expr):
            n = int(expr)
            return (n, n)
        for pat in (_CAST_RE, _INDEX_WRAP_RE):
            m = pat.match(expr)
            if m:
                return self.eval(m.group(1), state)
        m = _DIM_CALL_RE.match(expr)
        if m and m.group(1) in self.extents:
            dims = self.extents[m.group(1)]
            n = dims[0] if m.group(2) == "rows" else dims[1]
            return (n, n)
        m = _VALUE_CALL_RE.match(expr)
        if m:
            return state.get(m.group(1))
        if _IDENT_PATH_RE.match(expr):
            last = re.split(r"::|\.|->", expr)[-1].strip()
            return state.get(last)
        parts = _split_additive(expr)
        if len(parts) > 1:
            lo, hi = 0.0, 0.0
            for sign, operand in parts:
                r = self.eval(operand, state)
                if r is None:
                    return None
                if sign == "+":
                    lo, hi = lo + r[0], hi + r[1]
                else:
                    lo, hi = lo - r[1], hi - r[0]
            return (lo, hi)
        return None

    # -- transfer / refine

    def transfer(self, state: State, stmt: Stmt) -> State:
        text = " ".join(stmt.text.split())
        m = _INCDEC_RE.match(text)
        if m:
            var = m.group(2) or m.group(3)
            op = m.group(1) or m.group(4)
            if var in state:
                lo, hi = state[var]
                delta = 1 if op == "++" else -1
                state = dict(state)
                state[var] = (lo + delta, hi + delta)
            return state
        m = _INDEX_CTOR_RE.match(text)
        if m:
            r = self.eval(m.group(2), state)
            state = dict(state)
            if r is None:
                state.pop(m.group(1), None)
            else:
                state[m.group(1)] = r
            return state
        found = _find_assignment(text)
        if found is None:
            return state
        eq, compound = found
        lhs = text[:eq - 1] if compound else text[:eq]
        last = _LAST_IDENT_RE.search(lhs)
        if last is None:
            return state
        var = last.group(1)
        rhs = text[eq + 1:].strip().rstrip(";")
        state = dict(state)
        if compound:
            op = text[eq - 1]
            cur = state.get(var)
            delta = self.eval(rhs, state)
            if cur is None or delta is None or op not in "+-":
                state.pop(var, None)
            elif op == "+":
                state[var] = (cur[0] + delta[0], cur[1] + delta[1])
            else:
                state[var] = (cur[0] - delta[1], cur[1] - delta[0])
            return state
        r = self.eval(rhs, state)
        if r is None:
            state.pop(var, None)
        else:
            state[var] = r
        return state

    def refine(self, state: State, edge: Edge) -> State:
        if edge.cond is None or edge.cond_value is None:
            return state
        cond = edge.cond
        if edge.cond_value:
            if "||" in cond:
                return state
            conjuncts = cond.split("&&")
            negate = False
        else:
            if "&&" in cond:
                return state
            conjuncts = cond.split("||")
            negate = True
        for part in conjuncts:
            state = self._refine_cmp(state, part.strip(), negate)
        return state

    _CMP_RE = re.compile(r"^(.*?)(<=|>=|==|!=|<|>)(.*)$", re.DOTALL)
    _NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
               "==": "!=", "!=": "=="}

    def _var_of(self, expr: str) -> str | None:
        expr = _strip_parens(expr)
        m = _VALUE_CALL_RE.match(expr)
        if m:
            return m.group(1)
        if _IDENT_PATH_RE.match(expr):
            return re.split(r"::|\.|->", expr)[-1].strip()
        return None

    def _refine_cmp(self, state: State, cmp_text: str, negate: bool
                    ) -> State:
        m = self._CMP_RE.match(cmp_text)
        if m is None:
            return state
        lhs, op, rhs = m.group(1).strip(), m.group(2), m.group(3).strip()
        if "<" in lhs or ">" in lhs:  # avoid shift/template misparse
            return state
        if negate:
            op = self._NEGATE[op]
        var = self._var_of(lhs)
        other = rhs
        if var is None:
            var = self._var_of(rhs)
            other = lhs
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                  "==": "==", "!=": "!="}[op]
        if var is None:
            return state
        bound = self.eval(other, state)
        if bound is None or op == "!=":
            return state
        lo, hi = state.get(var, (-INF, INF))
        if op == "<":
            hi = min(hi, bound[1] - 1)
        elif op == "<=":
            hi = min(hi, bound[1])
        elif op == ">":
            lo = max(lo, bound[0] + 1)
        elif op == ">=":
            lo = max(lo, bound[0])
        elif op == "==":
            lo, hi = max(lo, bound[0]), min(hi, bound[1])
        if lo > hi:
            return state  # infeasible edge; keep the old state
        state = dict(state)
        state[var] = (lo, hi)
        return state


# ------------------------------------------------------------- findings

_ACCESS_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(mac|mac_sparse|weight)\s*\(")

#: method -> list of (argument position, extent axis).
_CHECKED_ARGS = {
    "mac": [(0, "col")],
    "mac_sparse": [(0, "col")],
    "weight": [(0, "row"), (1, "col")],
}


def _fmt(x: float) -> str:
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return str(int(x))


def _analyze(ctx: FileContext) -> tuple[list[Finding], list[Finding]]:
    cached = getattr(ctx, "_range_cache", None)
    if cached is not None:
        return cached
    overflow: list[Finding] = []
    dead: list[Finding] = []
    extents = _extents(ctx.code)
    client = _IntervalClient(extents)
    for block in function_blocks(ctx.code):
        try:
            cfg: Cfg = build_cfg(ctx.code, block.start + 1, block.end - 1)
            ins, outs = solve(cfg, client)
        except (RecursionError, IndexError, ValueError):
            continue
        if extents:
            _check_overflow(ctx, client, cfg, ins, extents, overflow)
        _check_dead(ctx, client, cfg, outs, dead)
    result = (overflow, dead)
    ctx._range_cache = result  # one interval pass feeds both rules
    return result


def _check_overflow(ctx: FileContext, client: _IntervalClient, cfg: Cfg,
                    ins: dict, extents: dict[str, tuple[int, int]],
                    out: list[Finding]) -> None:
    seen: set[tuple[int, str]] = set()
    for stmt, state in stmt_states(cfg, client, ins):
        text = " ".join(stmt.text.split())
        for m in _ACCESS_RE.finditer(text):
            receiver, method = m.group(1), m.group(2)
            if receiver not in extents:
                continue
            open_at = text.find("(", m.end() - 1)
            args = _split_args(_balanced_inner(text, open_at))
            rows, cols = extents[receiver]
            for arg_pos, axis in _CHECKED_ARGS[method]:
                if arg_pos >= len(args):
                    continue
                r = client.eval(args[arg_pos], state)
                if r is None:
                    continue
                extent = rows if axis == "row" else cols
                # An infinite bound is lost precision, not a proven
                # violation — only finite escapes are reported.
                if ((math.isfinite(r[1]) and r[1] >= extent)
                        or (math.isfinite(r[0]) and r[0] < 0)):
                    mark = (stmt.line, f"{receiver}.{method}#{arg_pos}")
                    if mark in seen:
                        continue
                    seen.add(mark)
                    out.append(ctx.finding(
                        stmt.line, "index-range-overflow",
                        f"{method}() {axis} index range "
                        f"[{_fmt(r[0])}, {_fmt(r[1])}] can escape "
                        f"'{receiver}' {axis} extent {extent} "
                        f"(valid [0, {extent - 1}])"))


def _check_dead(ctx: FileContext, client: _IntervalClient, cfg: Cfg,
                outs: dict, out: list[Finding]) -> None:
    seen: set[tuple[int, str]] = set()
    for edge, state in branch_edges(cfg, outs):
        if edge.origin != "if" or not edge.cond_value:
            continue
        cond = edge.cond or ""
        if "&&" in cond or "||" in cond:
            continue
        m = _IntervalClient._CMP_RE.match(cond)
        if m is None:
            continue
        lhs, op, rhs = m.group(1).strip(), m.group(2), m.group(3).strip()
        if "<" in lhs or ">" in lhs:
            continue
        var = client._var_of(lhs)
        a = client.eval(lhs, state)
        b = client.eval(rhs, state)
        if var is None or a is None or b is None:
            continue
        if a[0] == a[1]:
            continue  # degenerate: constant folding, not a range bug
        verdict = _decide(a, b, op)
        if verdict is None:
            continue
        mark = (edge.line, cond)
        if mark in seen:
            continue
        seen.add(mark)
        out.append(ctx.finding(
            edge.line, "index-check-dead",
            f"range check '{cond}' is provably always "
            f"{'true' if verdict else 'false'} "
            f"('{var}' in [{_fmt(a[0])}, {_fmt(a[1])}]) — the guard is "
            f"dead"))


def _decide(a: Range, b: Range, op: str) -> bool | None:
    """True/False when the comparison is decided by the intervals."""
    if op == "<":
        if a[1] < b[0]:
            return True
        if a[0] >= b[1]:
            return False
    elif op == "<=":
        if a[1] <= b[0]:
            return True
        if a[0] > b[1]:
            return False
    elif op == ">":
        if a[0] > b[1]:
            return True
        if a[1] <= b[0]:
            return False
    elif op == ">=":
        if a[0] >= b[1]:
            return True
        if a[1] < b[0]:
            return False
    elif op == "==":
        if a[1] < b[0] or a[0] > b[1]:
            return False
    elif op == "!=":
        if a[1] < b[0] or a[0] > b[1]:
            return True
    return None


@rule(
    "index-range-overflow",
    "derived index range provably escapes the storage extent at a "
    "mac/weight call site",
    """Runs an interval dataflow over each function's CFG — constants,
copies, ±const arithmetic, RowIndex/ColIndex construction, widening at
loop heads, branch-condition refinement on the edges — and checks the
derived range of every index argument at mac(), mac_sparse() and
weight() call sites against the receiving storage's
extents (taken from same-file declarations or make_*storage factory
calls with literal dimensions; s.rows()/s.cols() evaluate to them).

The classic instance is the off-by-one loop `for (i = 0; i <= s.cols();
++i) s.mac(ColIndex(i), ...)`: refinement of the loop condition leaves
`i` in [0, cols] on the body edge, and cols is one past the last valid
column. That walk past the extent is exactly the window/row aliasing
shape behind the >256-row faithfulness bug (PR 2) — the storage mock
may tolerate it; the hardware window does not.

Only proven violations fire: a range the analysis cannot bound (TOP) is
silent, so runtime-sized storages and complex arithmetic never produce
noise. If the access is intentionally out of the declared window (a
deliberate halo read), widen the declared extent or carry a
NOLINT(index-range-overflow) with a justification.""",
)
def _index_range_overflow(ctx: FileContext) -> Iterable[Finding]:
    return _analyze(ctx)[0]


@rule(
    "index-check-dead",
    "an if-guard range check is provably always true or always false",
    """Uses the same interval dataflow as index-range-overflow to decide
`if` conditions that compare a tracked variable against a bound. When
the variable's derived range makes the comparison constant — always
true or always false — the guard is dead: either a vestigial double
check (the loop bound already enforces it), or a bounds check placed
where it can no longer protect anything (e.g. after the loop that
needed it, or testing `i < cols` when the enclosing loop already
guarantees it). Dead guards misdocument the control flow and hide the
one case where the check was actually needed.

Loop conditions are exempt — they are supposed to become false — and so
are degenerate single-value ranges (deciding `if (kEnabled)` is
constant folding, not a range bug). Delete the dead guard, or fix the
range it was meant to check; suppress a deliberate defensive check with
NOLINT(index-check-dead) and a justification.""",
)
def _index_check_dead(ctx: FileContext) -> Iterable[Finding]:
    return _analyze(ctx)[1]
