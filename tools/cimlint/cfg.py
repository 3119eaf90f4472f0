"""Per-function control-flow graphs over stripped C++ bodies.

The PR-6 index reasons about *reachability* (which functions a root can
call); the seed-provenance proof (flowfacts.py, rng-unproven-seed)
reasons about *state along paths*, which needs statement-level control
flow. This module parses one function body — the same brace-matched,
comment-stripped text `functions.py` extracts — into a small statement
AST and lowers it to a basic-block CFG:

  * statements split at top-level `;` (brace-init and lambda bodies are
    swallowed into their statement, so `pool.run(n, [&]{...});` is one
    opaque statement — its *calls* are still visible to the index);
  * `if`/`else`, `for` (incl. range-for), `while`, `do`, `switch` and
    `try` produce branch/join/back edges; `return`/`break`/`continue`
    produce early exits.

Everything stays heuristic and over-approximate in the DESIGN.md §13
tradition: no types, no templates, no goto. A construct the parser does
not model (a `goto`, a statement-expression) degrades to an opaque
statement, never to a crash — clients see TOP, not garbage.

Offsets are absolute within the stripped file text, so `line_of` keeps
working and findings point at real lines.
"""

from __future__ import annotations

import dataclasses
import re

from .tokenizer import line_of

# ------------------------------------------------------------- statement AST


@dataclasses.dataclass
class Simple:
    text: str
    line: int


@dataclasses.dataclass
class Return:
    text: str
    line: int


@dataclasses.dataclass
class BreakStmt:
    line: int


@dataclasses.dataclass
class ContinueStmt:
    line: int


@dataclasses.dataclass
class If:
    cond: str
    line: int
    then: list
    els: list | None


@dataclasses.dataclass
class Loop:
    kind: str          # "for" | "while" | "dowhile"
    init: Simple | None
    cond: str | None   # None: range-for / infinite
    line: int
    step: str | None
    body: list


@dataclasses.dataclass
class Switch:
    cond: str
    line: int
    body: list


@dataclasses.dataclass
class Try:
    body: list
    handlers: list[list]


@dataclasses.dataclass
class BlockNode:
    body: list


_WORD = re.compile(r"[A-Za-z_]\w*")


class _Parser:
    """Recursive-descent statement parser over code[start:end]."""

    def __init__(self, code: str):
        self.code = code

    def parse(self, start: int, end: int) -> list:
        nodes, _ = self._sequence(start, end)
        return nodes

    # -- lexing helpers

    def _skip_ws(self, i: int, end: int) -> int:
        while i < end and self.code[i].isspace():
            i += 1
        return i

    def _match_paren(self, i: int, end: int) -> int:
        """code[i] == '(' → offset one past the matching ')'."""
        depth = 0
        while i < end:
            ch = self.code[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return end

    def _match_brace(self, i: int, end: int) -> int:
        """code[i] == '{' → offset one past the matching '}'."""
        depth = 0
        while i < end:
            ch = self.code[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return end

    def _statement_end(self, i: int, end: int) -> int:
        """Offset one past the `;` ending the plain statement at i.

        Parens, brackets and braces (brace-init, lambda bodies) are
        opaque: a `;` inside them does not end the statement.
        """
        depth = 0
        while i < end:
            ch = self.code[i]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == ";" and depth <= 0:
                return i + 1
            i += 1
        return end

    # -- grammar

    def _sequence(self, i: int, end: int) -> tuple[list, int]:
        nodes: list = []
        while True:
            i = self._skip_ws(i, end)
            if i >= end:
                return nodes, i
            node, i = self._statement(i, end)
            if node is not None:
                nodes.append(node)

    def _statement(self, i: int, end: int):
        code = self.code
        ch = code[i]
        if ch == ";":
            return None, i + 1
        if ch == "{":
            close = self._match_brace(i, end)
            return BlockNode(self.parse(i + 1, close - 1)), close
        if ch == "#":  # stray preprocessor line inside a body: skip it
            nl = code.find("\n", i)
            return None, (end if nl == -1 or nl >= end else nl + 1)
        m = _WORD.match(code, i)
        word = m.group(0) if m else ""
        line = line_of(code, i)
        if word == "if":
            return self._if(i, end)
        if word in ("for", "while"):
            return self._loop(word, i, end)
        if word == "do":
            return self._dowhile(i, end)
        if word == "switch":
            return self._switch(i, end)
        if word == "try":
            return self._try(i, end)
        if word == "return":
            stop = self._statement_end(i, end)
            return Return(code[i:stop].strip(), line), stop
        if word in ("break", "continue"):
            stop = self._statement_end(i, end)
            node = BreakStmt(line) if word == "break" else ContinueStmt(line)
            return node, stop
        if word in ("case", "default"):
            # Labels: consume through the ':' (':' only — '::' is a
            # qualifier) and fall through to the labelled statement.
            j = i + len(word)
            while j < end:
                if code[j] == ":" and code[j + 1:j + 2] != ":" \
                        and code[j - 1:j] != ":":
                    return None, j + 1
                if code[j] == ";":  # malformed: bail to plain statement
                    break
                j += 1
            stop = self._statement_end(i, end)
            return Simple(code[i:stop].strip(), line), stop
        stop = self._statement_end(i, end)
        text = code[i:stop].strip().rstrip(";").strip()
        if not text:
            return None, stop
        return Simple(text, line), stop

    def _body_or_stmt(self, i: int, end: int) -> tuple[list, int]:
        i = self._skip_ws(i, end)
        if i < end and self.code[i] == "{":
            close = self._match_brace(i, end)
            return self.parse(i + 1, close - 1), close
        node, i = self._statement(i, end)
        return ([node] if node is not None else []), i

    def _if(self, i: int, end: int):
        code = self.code
        line = line_of(code, i)
        open_paren = code.find("(", i, end)
        if open_paren < 0:
            stop = self._statement_end(i, end)
            return Simple(code[i:stop].strip(), line), stop
        close = self._match_paren(open_paren, end)
        cond = " ".join(code[open_paren + 1:close - 1].split())
        then, i = self._body_or_stmt(close, end)
        j = self._skip_ws(i, end)
        els = None
        m = _WORD.match(code, j)
        if m and m.group(0) == "else":
            els, i = self._body_or_stmt(j + 4, end)
        return If(cond, line, then, els), i

    def _loop(self, kind: str, i: int, end: int):
        code = self.code
        line = line_of(code, i)
        open_paren = code.find("(", i, end)
        if open_paren < 0:
            stop = self._statement_end(i, end)
            return Simple(code[i:stop].strip(), line), stop
        close = self._match_paren(open_paren, end)
        header = code[open_paren + 1:close - 1]
        init: Simple | None = None
        cond: str | None
        step: str | None = None
        if kind == "for":
            parts = self._split_header(header)
            if parts is None:  # range-for: opaque init, unknown trip count
                init = Simple(" ".join(header.split()), line)
                cond = None
            else:
                init_text, cond_text, step_text = parts
                if init_text.strip():
                    init = Simple(" ".join(init_text.split()), line)
                cond = " ".join(cond_text.split()) or None
                step = " ".join(step_text.split()) or None
        else:
            cond = " ".join(header.split()) or None
            if cond == "true":
                cond = None
        body, i = self._body_or_stmt(close, end)
        return Loop(kind, init, cond, line, step, body), i

    def _split_header(self, header: str) -> tuple[str, str, str] | None:
        """init/cond/step of a classic for header; None for range-for."""
        parts: list[str] = []
        depth = 0
        start = 0
        for i, ch in enumerate(header):
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == ";" and depth == 0:
                parts.append(header[start:i])
                start = i + 1
        if len(parts) != 2:
            return None
        return parts[0], parts[1], header[start:]

    def _dowhile(self, i: int, end: int):
        code = self.code
        line = line_of(code, i)
        body, i = self._body_or_stmt(i + 2, end)
        i = self._skip_ws(i, end)
        cond = None
        m = _WORD.match(code, i)
        if m and m.group(0) == "while":
            open_paren = code.find("(", i, end)
            if open_paren >= 0:
                close = self._match_paren(open_paren, end)
                cond = " ".join(code[open_paren + 1:close - 1].split())
                i = self._statement_end(close, end)
        return Loop("dowhile", None, cond or None, line, None, body), i

    def _switch(self, i: int, end: int):
        code = self.code
        line = line_of(code, i)
        open_paren = code.find("(", i, end)
        close = self._match_paren(open_paren, end) if open_paren >= 0 else i
        cond = " ".join(code[open_paren + 1:close - 1].split()) \
            if open_paren >= 0 else ""
        body, i = self._body_or_stmt(close, end)
        return Switch(cond, line, body), i

    def _try(self, i: int, end: int):
        code = self.code
        body, i = self._body_or_stmt(i + 3, end)
        handlers: list[list] = []
        while True:
            j = self._skip_ws(i, end)
            m = _WORD.match(code, j)
            if not (m and m.group(0) == "catch"):
                break
            open_paren = code.find("(", j, end)
            if open_paren < 0:
                break
            close = self._match_paren(open_paren, end)
            handler, i = self._body_or_stmt(close, end)
            handlers.append(handler)
        return Try(body, handlers), i


# ------------------------------------------------------------------ CFG


@dataclasses.dataclass
class Stmt:
    text: str
    line: int


@dataclasses.dataclass
class Edge:
    src: int
    dst: int
    cond: str | None = None       # branch condition text, if any
    cond_value: bool | None = None  # sense of this edge w.r.t. cond
    origin: str = "fall"          # "if" | "loop" | "switch" | "fall" | ...


@dataclasses.dataclass
class Block:
    id: int
    stmts: list[Stmt] = dataclasses.field(default_factory=list)


class Cfg:
    """Basic blocks + edges for one function body."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.edges: list[Edge] = []
        self.entry: int = 0
        self.exit: int = 0
        self.loop_heads: set[int] = set()

    def new_block(self) -> Block:
        block = Block(id=len(self.blocks))
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int, **kw) -> None:
        self.edges.append(Edge(src=src, dst=dst, **kw))

    def rpo(self) -> list[int]:
        """Reverse post-order block ids from the entry (deterministic)."""
        succs: dict[int, list[int]] = {b.id: [] for b in self.blocks}
        for e in self.edges:
            succs[e.src].append(e.dst)
        seen: set[int] = set()
        order: list[int] = []

        def visit(b: int) -> None:
            stack = [(b, iter(sorted(succs[b])))]
            seen.add(b)
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(sorted(succs[nxt]))))
                        break
                else:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order

    def all_stmts(self) -> list[Stmt]:
        out: list[Stmt] = []
        for block in self.blocks:
            out.extend(block.stmts)
        return out


@dataclasses.dataclass
class _LoopCtx:
    head: int            # continue target
    after: int           # break target


class _Lowerer:
    """AST → CFG."""

    def __init__(self) -> None:
        self.cfg = Cfg()
        self.loops: list[_LoopCtx] = []

    def lower(self, nodes: list) -> Cfg:
        entry = self.cfg.new_block()
        exit_block = self.cfg.new_block()
        self.cfg.entry = entry.id
        self.cfg.exit = exit_block.id
        self.exit_id = exit_block.id
        cur = self._seq(nodes, entry.id)
        if cur is not None:
            self.cfg.add_edge(cur, exit_block.id)
        return self.cfg

    def _seq(self, nodes: list, cur: int | None) -> int | None:
        """Lowers `nodes` from block `cur`; returns the live block after
        them (None when every path terminated)."""
        for node in nodes:
            if cur is None:
                # Unreachable trailing code (after return/break): skip.
                return None
            cur = self._node(node, cur)
        return cur

    # -- node lowering

    def _node(self, node, cur: int) -> int | None:
        cfg = self.cfg
        if isinstance(node, Simple):
            cfg.blocks[cur].stmts.append(Stmt(text=node.text, line=node.line))
            return cur
        if isinstance(node, Return):
            cfg.blocks[cur].stmts.append(Stmt(text=node.text, line=node.line))
            cfg.add_edge(cur, self.exit_id, origin="return")
            return None
        if isinstance(node, BreakStmt):
            if self.loops:
                cfg.add_edge(cur, self.loops[-1].after, origin="break")
            return None
        if isinstance(node, ContinueStmt):
            if self.loops:
                cfg.add_edge(cur, self.loops[-1].head, origin="continue")
            return None
        if isinstance(node, BlockNode):
            return self._seq(node.body, cur)
        if isinstance(node, If):
            return self._if(node, cur)
        if isinstance(node, Loop):
            return self._loop(node, cur)
        if isinstance(node, Switch):
            return self._switch(node, cur)
        if isinstance(node, Try):
            return self._try(node, cur)
        return cur

    def _if(self, node: If, cur: int) -> int | None:
        cfg = self.cfg
        then_blk = cfg.new_block()
        join = cfg.new_block()
        cfg.add_edge(cur, then_blk.id, cond=node.cond, cond_value=True,
                     origin="if")
        then_end = self._seq(node.then, then_blk.id)
        if then_end is not None:
            cfg.add_edge(then_end, join.id)
        if node.els is None:
            cfg.add_edge(cur, join.id, cond=node.cond, cond_value=False,
                         origin="if")
        else:
            else_blk = cfg.new_block()
            cfg.add_edge(cur, else_blk.id, cond=node.cond, cond_value=False,
                         origin="if")
            else_end = self._seq(node.els, else_blk.id)
            if else_end is not None:
                cfg.add_edge(else_end, join.id)
        return join.id

    def _loop(self, node: Loop, cur: int) -> int | None:
        cfg = self.cfg
        if node.init is not None:
            cur2 = self._node(node.init, cur)
            assert cur2 is not None
            cur = cur2
        head = cfg.new_block()
        after = cfg.new_block()
        cfg.loop_heads.add(head.id)
        body_blk = cfg.new_block()
        if node.kind == "dowhile":
            # Body runs first; the head is the condition point.
            cfg.add_edge(cur, body_blk.id)
        else:
            cfg.add_edge(cur, head.id)
            cfg.add_edge(head.id, body_blk.id, cond=node.cond,
                         cond_value=True, origin="loop")
        cfg.add_edge(head.id, after.id, cond=node.cond, cond_value=False,
                     origin="loop")
        self.loops.append(_LoopCtx(head=head.id, after=after.id))
        body_nodes = list(node.body)
        if node.step is not None:
            body_nodes.append(Simple(node.step, node.line))
        body_end = self._seq(body_nodes, body_blk.id)
        self.loops.pop()
        if body_end is not None:
            if node.kind == "dowhile":
                cfg.add_edge(body_end, head.id)
                cfg.add_edge(head.id, body_blk.id, cond=node.cond,
                             cond_value=True, origin="loop")
            else:
                cfg.add_edge(body_end, head.id, origin="back")
        # A do-while whose body always terminates leaves the head
        # unreachable; `after` still joins via break edges (if any).
        return after.id

    def _switch(self, node: Switch, cur: int) -> int | None:
        cfg = self.cfg
        body_blk = cfg.new_block()
        join = cfg.new_block()
        # Over-approximation: the body may run (entered at the top) or be
        # skipped entirely (no matching case); `break` targets the join.
        cfg.add_edge(cur, body_blk.id, cond=node.cond, cond_value=None,
                     origin="switch")
        cfg.add_edge(cur, join.id, cond=node.cond, cond_value=None,
                     origin="switch")
        self.loops.append(_LoopCtx(head=join.id, after=join.id))
        body_end = self._seq(node.body, body_blk.id)
        self.loops.pop()
        if body_end is not None:
            cfg.add_edge(body_end, join.id)
        return join.id

    def _try(self, node: Try, cur: int) -> int | None:
        cfg = self.cfg
        join = cfg.new_block()
        body_end = self._seq(node.body, cur)
        if body_end is not None:
            cfg.add_edge(body_end, join.id)
        for handler in node.handlers:
            h_blk = cfg.new_block()
            # A handler can be entered from anywhere in the body; the
            # pre-try block is the sound (if coarse) source.
            cfg.add_edge(cur, h_blk.id, origin="catch")
            h_end = self._seq(handler, h_blk.id)
            if h_end is not None:
                cfg.add_edge(h_end, join.id)
        return join.id


def build_cfg(code: str, start: int, end: int) -> Cfg:
    """CFG of the function body occupying code[start:end] (the text
    between the braces, offsets absolute in the stripped file)."""
    nodes = _Parser(code).parse(start, end)
    return _Lowerer().lower(nodes)
