"""Per-function dataflow summaries: seed provenance.

The interprocedural seed-flow proof (rules_seedflow) needs one fact
bundle per function, computed once at index time and cached with the
rest of the project index:

  * `seed_sites`    — every RNG construction / reseed with a provenance
                      verdict: does the seed expression derive from
                      util::stream_seed / hash_combine / splitmix64 /
                      fork / a literal / a seed-named value through a
                      chain the intraprocedural solver can follow?

The client runs the generic worklist solver over the cfg.py CFG with a
must-analysis join (set intersection), so a variable seeded on one
branch only is not proven.

Boundary assumptions, stated rather than hidden (DESIGN.md §13): at
function entry, parameters count as proven seed material — call sites
are checked in *their* enclosing functions. For the seed-derivation
calls (stream_seed/hash_combine/splitmix64) provenance follows the
FIRST argument: the base carries the lineage, the second operand is a
stream selector / mixing constant.
"""

from __future__ import annotations

import dataclasses
import re

from . import stats
from .cfg import Cfg, Stmt, build_cfg
from .dataflow import solve, stmt_states

# ------------------------------------------------------------ data model


@dataclasses.dataclass(frozen=True)
class SeedSite:
    line: int
    rng: str       # variable / receiver being seeded
    proven: bool
    detail: str    # why the proof failed ("" when proven)


@dataclasses.dataclass(frozen=True)
class FlowFacts:
    seed_sites: tuple[SeedSite, ...]


EMPTY_FACTS = FlowFacts(seed_sites=())

# ----------------------------------------------------- signature parsing

_LAST_IDENT = re.compile(r"([A-Za-z_]\w*)\s*$")


def _split_args(text: str) -> list[str]:
    """Top-level comma split (parens/braces/brackets/angles are opaque)."""
    out: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [a.strip() for a in out if a.strip()]


def signature_params(code: str, name_offset: int, body_start: int
                     ) -> tuple[str, ...]:
    """Best-effort parameter names of the function whose name token is at
    `name_offset` (last identifier of each declarator, defaults
    stripped)."""
    open_paren = code.find("(", name_offset, body_start)
    if open_paren < 0:
        return ()
    depth = 0
    close = -1
    for j in range(open_paren, body_start):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                close = j
                break
    if close < 0:
        return ()
    out: list[str] = []
    for arg in _split_args(code[open_paren + 1:close]):
        arg = arg.split("=", 1)[0]
        last = _LAST_IDENT.search(arg)
        if last:
            out.append(last.group(1))
    return tuple(out)


# ------------------------------------------------- seed-provenance client

#: Functions whose result inherits the provenance of their first
#: argument (the seed-derivation chain of random.hpp).
_DERIVE_FNS = frozenset({"stream_seed", "hash_combine", "splitmix64"})

#: Numeric-type functional casts: pass-through.
_TYPE_FNS = frozenset({
    "uint64_t", "uint32_t", "uint16_t", "uint8_t", "int64_t", "int32_t",
    "size_t", "int", "unsigned", "long", "uint64", "u64", "auto",
})

_CAST_RE = re.compile(
    r"^(?:static_cast|const_cast|reinterpret_cast)\s*<[^()]*>\s*\((.*)\)$",
    re.DOTALL)
_NUM_RE = re.compile(r"(?:0[xX][0-9a-fA-F']+|\d[\d'.]*)(?:[uUlLzZfF]*)")
_PATH_RE = re.compile(
    r"[A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*[A-Za-z_]\w*)*")

_BIN_OPS = ("<<", ">>", "+", "-", "*", "/", "%", "^", "|", "&")


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


def _split_binary(expr: str) -> list[str]:
    """Top-level operands of `expr` under the +,-,*,... operators
    (returns [expr] when it is not a binary expression)."""
    parts: list[str] = []
    depth = 0
    start = 0
    i = 0
    n = len(expr)
    while i < n:
        ch = expr[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0:
            if expr.startswith("->", i):
                i += 2
                continue
            for op in _BIN_OPS:
                if expr.startswith(op, i):
                    parts.append(expr[start:i])
                    i += len(op)
                    start = i
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    parts.append(expr[start:])
    return [p for p in (p.strip() for p in parts) if p]


def _prove_seed(expr: str, proven: frozenset[str]) -> tuple[bool, str]:
    """(proven?, failure detail) for a seed expression.

    The proof follows the *derivation spine*: literals, seed-named
    values, variables the dataflow already proved, fork(), and the
    derive functions applied to a proven base.
    """
    expr = _strip_parens(expr)
    if not expr or _NUM_RE.fullmatch(expr) or expr in ("true", "false"):
        return True, ""
    if expr[0] in "-~!+":
        return _prove_seed(expr[1:], proven)

    # Ternary: both arms must be proven.
    depth = 0
    for i, ch in enumerate(expr):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "?" and depth == 0 and expr[i + 1:i + 2] != ":":
            colon = -1
            d2 = 0
            for j in range(i + 1, len(expr)):
                if expr[j] in "([{":
                    d2 += 1
                elif expr[j] in ")]}":
                    d2 -= 1
                elif expr[j] == ":" and d2 == 0 \
                        and expr[j - 1] != ":" and expr[j + 1:j + 2] != ":":
                    colon = j
                    break
            if colon > 0:
                ok_a, why_a = _prove_seed(expr[i + 1:colon], proven)
                if not ok_a:
                    return False, why_a
                return _prove_seed(expr[colon + 1:], proven)

    operands = _split_binary(expr)
    if len(operands) > 1:
        for op in operands:
            ok, why = _prove_seed(op, proven)
            if not ok:
                return False, why
        return True, ""

    m = _CAST_RE.match(expr)
    if m:
        return _prove_seed(m.group(1), proven)

    pm = _PATH_RE.match(expr)
    if pm:
        path = pm.group(0)
        last = re.split(r"::|\.|->", path)[-1].strip()
        rest = expr[pm.end():].lstrip()
        if not rest:
            if last in proven or "seed" in last.lower():
                return True, ""
            return False, f"'{last}' has no seed provenance"
        if rest.startswith("(") and rest.endswith(")"):
            args = _split_args(rest[1:-1])
            if last in _DERIVE_FNS:
                if not args:
                    return False, f"'{last}()' called without a base seed"
                return _prove_seed(args[0], proven)
            if last == "fork":
                return True, ""
            if last in _TYPE_FNS:
                return _prove_seed(rest[1:-1], proven)
            if "seed" in last.lower():
                return True, ""
            return False, (f"value flows through '{last}()', which is not "
                           f"a recognised seed derivation")
        if rest.startswith("["):
            return False, f"indexed value '{path}[...]'"
    return False, "unrecognised seed expression"


def _find_assignment(text: str) -> tuple[int, bool] | None:
    """(offset of top-level '=', is_compound) or None."""
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            if text[i + 1:i + 2] == "=":
                i += 2
                continue
            prev = text[i - 1:i]
            if prev in ("<", ">", "!"):
                i += 1
                continue
            return i, prev in ("+", "-", "*", "/", "%", "^", "|", "&")
        i += 1
    return None


class _SeedClient:
    """Provenance lattice: frozenset of proven variable names."""

    def __init__(self, params: tuple[str, ...]):
        self.params = params

    def entry_state(self) -> frozenset[str]:
        return frozenset(self.params)

    def join(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a & b

    def transfer(self, state: frozenset[str], stmt: Stmt) -> frozenset[str]:
        found = _find_assignment(stmt.text)
        if found is None:
            return state
        eq, compound = found
        lhs = stmt.text[:eq - 1] if compound else stmt.text[:eq]
        last = _LAST_IDENT.search(lhs)
        if last is None:
            return state
        var = last.group(1)
        ok, _ = _prove_seed(stmt.text[eq + 1:].rstrip(";"), state)
        if compound:
            ok = ok and var in state
        return (state | {var}) if ok else (state - {var})


# ------------------------------------------------------- site extraction

_RNG_DECL_RE = re.compile(
    r"(?:^|[(\s])(?:util\s*::\s*)?"
    r"(?:Rng|std\s*::\s*mt19937(?:_64)?|mt19937(?:_64)?|"
    r"default_random_engine|minstd_rand0?)"
    r"\s+([A-Za-z_]\w*)\s*([({])")
_RESEED_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)"
    r"\s*(?:\.|->)\s*(?:reseed|seed)\s*\(")
_RNG_APPEND_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\.\s*(?:emplace_back|push_back)\s*\(")


def _balanced_span(text: str, open_at: int) -> int:
    """Offset one past the bracket matching text[open_at] ('(' or '{')."""
    pairs = {"(": ")", "{": "}"}
    close = pairs[text[open_at]]
    open_ch = text[open_at]
    depth = 0
    for j in range(open_at, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _seed_sites_in_stmt(stmt: Stmt, state: frozenset[str]
                        ) -> list[SeedSite]:
    text = " ".join(stmt.text.split())
    sites: list[SeedSite] = []
    for m in _RNG_DECL_RE.finditer(text):
        open_at = m.start(2)
        inner = text[open_at + 1:_balanced_span(text, open_at) - 1]
        args = _split_args(inner)
        if not args:   # default-seeded: fixed constant in random.hpp
            ok, why = True, ""
        else:
            ok, why = _prove_seed(args[0], state)
        sites.append(SeedSite(line=stmt.line, rng=m.group(1),
                              proven=ok, detail=why))
    for m in _RESEED_RE.finditer(text):
        open_at = text.find("(", m.end() - 1)
        inner = text[open_at + 1:_balanced_span(text, open_at) - 1]
        args = _split_args(inner)
        ok, why = _prove_seed(args[0], state) if args else (True, "")
        receiver = re.sub(r"\s+", "", m.group(1))
        sites.append(SeedSite(line=stmt.line, rng=receiver,
                              proven=ok, detail=why))
    for m in _RNG_APPEND_RE.finditer(text):
        if "rng" not in m.group(1).lower():
            continue
        open_at = text.find("(", m.end() - 1)
        inner = text[open_at + 1:_balanced_span(text, open_at) - 1]
        args = _split_args(inner)
        if not args:
            continue
        ok, why = _prove_seed(args[0], state)
        sites.append(SeedSite(line=stmt.line, rng=m.group(1),
                              proven=ok, detail=why))
    return sites


# -------------------------------------------------------------- top level


def extract_flow_facts(code: str, body_start: int, body_end: int,
                       name_offset: int) -> FlowFacts:
    """Computes the FlowFacts bundle for the function whose body is
    code[body_start+1:body_end-1] (offsets of the braces, absolute in
    the stripped file). Degrades to EMPTY_FACTS on any internal failure
    — a summary miss is an analysis gap, never a crash."""
    try:
        return _extract(code, body_start, body_end, name_offset)
    except (RecursionError, IndexError, ValueError):
        return EMPTY_FACTS


def _mentions_rng(text: str) -> bool:
    return "rng" in text.lower() or any(
        word in text
        for word in ("mt19937", "reseed", "random_engine", "minstd_rand"))


def _extract(code: str, body_start: int, body_end: int,
             name_offset: int) -> FlowFacts:
    # Statements are substrings of the body, so a body that never
    # mentions an RNG needs no CFG at all.
    if not _mentions_rng(code[body_start:body_end]):
        return EMPTY_FACTS
    with stats.GLOBAL.phase("cfg"):
        cfg: Cfg = build_cfg(code, body_start + 1, body_end - 1)
    if not any(_mentions_rng(stmt.text) for stmt in cfg.all_stmts()):
        return EMPTY_FACTS

    seed_client = _SeedClient(signature_params(code, name_offset, body_start))
    with stats.GLOBAL.phase("solve"):
        ins = solve(cfg, seed_client)
    seed_sites: list[SeedSite] = []
    for stmt, state in stmt_states(cfg, seed_client, ins):
        seed_sites.extend(_seed_sites_in_stmt(stmt, state))
    seed_sites.sort(key=lambda s: (s.line, s.rng))
    return FlowFacts(seed_sites=tuple(seed_sites))
