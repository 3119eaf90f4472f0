"""Cross-TU index: functions, call sites, macros, classes, taint sites.

The per-file rules (rules_*.py) see one file at a time; the project
rules (determinism-taint, lock-discipline) need whole-program facts: who
defines what, who calls whom, which class owns which mutex. This module
parses every first-party TU — with the same tokenizer/brace machinery
the per-file rules use, no real C++ front end — into a `ProjectIndex`:

  * `FunctionInfo` per function definition: best-effort qualified name
    (`LevelSolver::run`), the callee names its body mentions, the
    determinism-taint sites it contains, and whether its signature
    carries the `CIM_DETERMINISM_ROOT` marker
    (src/util/thread_annotations.hpp).
  * `MacroInfo` per function-like `#define`: macros are call-graph nodes
    too, so `TELEM_COUNTER_EVENT(...)` in the epoch loop correctly leads
    into `Registry::counter_event` through the macro's replacement text.
  * `ClassInfo` per class/struct: mutex and atomic members plus the
    CIM_GUARDED_BY / CIM_REQUIRES / CIM_EXCLUDES annotation sites — the
    machine-checkable half of the thread-annotation contract.

Everything is *over-approximate by construction* (DESIGN.md §13): calls
resolve by name, not by type; a lambda's calls attribute to its
enclosing function; an indirect call through `std::function` resolves to
nothing (which is why pool entry points are themselves roots). The index
is serialized to JSON and cached keyed on content hash (sha256 of the
file bytes; mtime/size ride along as diagnostics only), so a warm
`--changed-only` run re-parses only edited files — and a touched-but-
unchanged file, a same-size edit, or CI clock skew can never serve a
stale index.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path, PurePosixPath

from . import contenthash, stats
from .flowfacts import FlowFacts, SeedSite, extract_flow_facts
from .functions import FunctionBlock, function_blocks
from .tokenizer import line_of, strip_comments_and_strings

#: Bump to invalidate on-disk caches when the index shape or the
#: extraction heuristics change.
#: v2: content-hash cache keys + per-function FlowFacts summaries.
#: v3: FlowFacts carry seed sites only.
INDEX_VERSION = 3

ROOT_MARKER = "CIM_DETERMINISM_ROOT"

# ---------------------------------------------------------------- taints

#: Determinism-taint sources: (kind, human detail, pattern). Matched
#: against stripped function bodies; the kinds are what the det-taint
#: rule reports and what fixture tests pin.
TAINT_PATTERNS: tuple[tuple[str, str, re.Pattern[str]], ...] = (
    ("wall-clock",
     "wall-clock read (chrono ::now)",
     re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)"
                r"\s*::\s*now\b")),
    ("wall-clock",
     "wall-clock read (C time API)",
     re.compile(r"(?<![\w:])(?:gettimeofday|clock_gettime|timespec_get)"
                r"\s*\(|(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")),
    ("thread-id",
     "thread identity as a value (std::this_thread::get_id)",
     re.compile(r"\bthis_thread\s*::\s*get_id\b|\bpthread_self\s*\(")),
    ("unordered-container",
     "unordered container (iteration order is unspecified)",
     re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")),
    # "unseeded-rng" (std::random_device / rand) used to live here as a
    # blacklist pattern; the rng-unproven-seed provenance proof
    # (rules_seedflow.py) replaced it — every reachable RNG seeding site
    # must now *prove* its lineage instead of merely avoiding two known-
    # bad sources. The per-file rng-random-device / rng-libc-rand rules
    # still flag the sources themselves at their use sites.
    ("address-hash",
     "pointer value used as data (address-as-value hashing)",
     re.compile(r"\bstd\s*::\s*hash\s*<[^>]*\*|"
                r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\b")),
)

# ------------------------------------------------------------ data model


@dataclasses.dataclass(frozen=True)
class TaintSite:
    kind: str    # one of the TAINT_PATTERNS kinds
    detail: str  # human-readable description of the source
    line: int    # 1-based line of the match


@dataclasses.dataclass(frozen=True)
class FunctionInfo:
    name: str        # last identifier ("run")
    qual_name: str   # with class qualification where visible
    path: str        # repo-relative posix path
    line: int        # 1-based line of the name token
    is_root: bool    # CIM_DETERMINISM_ROOT in the signature region
    calls: tuple[str, ...]        # callee names, sorted, deduped
    taints: tuple[TaintSite, ...]
    flow: FlowFacts  # dataflow summaries (seed provenance)


@dataclasses.dataclass(frozen=True)
class MacroInfo:
    name: str
    path: str
    line: int
    calls: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class AnnotationSite:
    macro: str  # CIM_GUARDED_BY / CIM_PT_GUARDED_BY / CIM_REQUIRES / ...
    arg: str    # raw argument text, stripped
    line: int


@dataclasses.dataclass(frozen=True)
class ClassInfo:
    name: str    # possibly qualified ("ThreadPool::Batch")
    path: str
    line: int
    mutexes: tuple[tuple[str, int], ...]  # (member name, decl line)
    atomics: tuple[str, ...]
    annotations: tuple[AnnotationSite, ...]


@dataclasses.dataclass(frozen=True)
class FileIndex:
    functions: tuple[FunctionInfo, ...]
    macros: tuple[MacroInfo, ...]
    classes: tuple[ClassInfo, ...]


@dataclasses.dataclass
class ProjectIndex:
    root: Path
    files: dict[str, FileIndex]  # rel posix path -> facts

    def all_functions(self) -> list[FunctionInfo]:
        out: list[FunctionInfo] = []
        for rel in sorted(self.files):
            out.extend(self.files[rel].functions)
        return out

    def all_macros(self) -> list[MacroInfo]:
        out: list[MacroInfo] = []
        for rel in sorted(self.files):
            out.extend(self.files[rel].macros)
        return out

    def all_classes(self) -> list[ClassInfo]:
        out: list[ClassInfo] = []
        for rel in sorted(self.files):
            out.extend(self.files[rel].classes)
        return out

    def roots(self) -> list[FunctionInfo]:
        return [f for f in self.all_functions() if f.is_root]


# ------------------------------------------------- function/call parsing

_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "catch", "new", "delete", "throw", "assert", "defined",
    "co_await", "co_return", "co_yield", "requires", "decltype", "typeid",
    "static_assert", "noexcept", "else", "do", "case", "operator",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
})

_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_IDENT_TAIL = re.compile(r"([A-Za-z_]\w*)\s*$")


def _extract_calls(body: str) -> tuple[str, ...]:
    """Callee names a body mentions — over-approximate.

    `foo(`, `obj.foo(`, `ptr->foo(` and `ns::foo(` all yield `foo`.
    Additionally, `Type name(...)` declarations yield `Type` so
    constructor calls resolve (`telemetry::Scope s(...)` → `Scope`).
    """
    calls: set[str] = set()
    for m in _CALL_RE.finditer(body):
        name = m.group(1)
        if name in _KEYWORDS:
            continue
        calls.add(name)
        # Declaration form: the identifier before this one is a type
        # name whose constructor runs. `new Foo(` is already covered by
        # the keyword filter rejecting nothing here (Foo itself matched).
        before = body[:m.start(1)]
        tail = _IDENT_TAIL.search(before)
        if tail and tail.group(1) not in _KEYWORDS:
            calls.add(tail.group(1))
    return tuple(sorted(calls))


def _scan_taints(body: str, body_offset: int, code: str
                 ) -> tuple[TaintSite, ...]:
    sites: list[TaintSite] = []
    for kind, detail, pattern in TAINT_PATTERNS:
        for m in pattern.finditer(body):
            sites.append(TaintSite(
                kind=kind, detail=detail,
                line=line_of(code, body_offset + m.start())))
    sites.sort(key=lambda s: (s.line, s.kind))
    return tuple(sites)


def _name_token_before(code: str, pos: int) -> tuple[str, int]:
    """(token, start) of the identifier-ish token ending before `pos`."""
    j = pos
    while j > 0 and code[j - 1].isspace():
        j -= 1
    k = j
    while k > 0 and (code[k - 1].isalnum() or code[k - 1] == "_"):
        k -= 1
    return code[k:j], k


def _signature_name(code: str, block: FunctionBlock) -> tuple[str, str, int]:
    """(name, qualified name, name offset) for a function block.

    Re-derives the name from the parameter list's `)` like
    functions.py, but walks back through constructor initialiser-list
    entries (`: a_(x), b_(y) {` names `b_` there) to the real parameter
    list, then collects `Class::` qualification.
    """
    pos = block.start
    for _ in range(24):
        # Find the nearest ')' before pos.
        close = code.rfind(")", 0, pos)
        if close < 0:
            return block.name, block.name, block.start
        depth = 0
        open_paren = -1
        for j in range(close, -1, -1):
            if code[j] == ")":
                depth += 1
            elif code[j] == "(":
                depth -= 1
                if depth == 0:
                    open_paren = j
                    break
        if open_paren < 0:
            return block.name, block.name, block.start
        name, name_start = _name_token_before(code, open_paren)
        if not name:
            return block.name, block.name, block.start
        # Init-list entry: `, member_(x)` or `: member_(x)` — hop to the
        # previous ')' (ultimately the parameter list's).
        probe = name_start
        while probe > 0 and code[probe - 1].isspace():
            probe -= 1
        if probe > 0 and code[probe - 1] in ",:" and not (
            probe > 1 and code[probe - 2] == ":"  # `::` is qualification
        ):
            pos = open_paren
            continue
        qual = name
        scan = name_start
        while scan > 1 and code[scan - 2:scan] == "::":
            part, part_start = _name_token_before(code, scan - 2)
            if not part:
                break
            qual = f"{part}::{qual}"
            scan = part_start
        return name, qual, name_start
    return block.name, block.name, block.start


_ROOT_RE = re.compile(rf"\b{ROOT_MARKER}\b")


def _signature_region(code: str, name_offset: int) -> str:
    """Text from the previous declaration boundary to the name token —
    where CIM_DETERMINISM_ROOT and other signature markers live."""
    boundary = max(code.rfind(";", 0, name_offset),
                   code.rfind("}", 0, name_offset),
                   code.rfind("{", 0, name_offset), 0)
    return code[boundary:name_offset]


# --------------------------------------------------------- macro parsing

_DEFINE_RE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+([A-Za-z_]\w*)\(",
                        re.MULTILINE)


def _extract_macros(code: str, rel: str) -> tuple[MacroInfo, ...]:
    macros: list[MacroInfo] = []
    for m in _DEFINE_RE.finditer(code):
        # Replacement text: this line plus backslash-continued lines.
        end = m.end()
        while True:
            nl = code.find("\n", end)
            if nl == -1:
                nl = len(code)
            line_text = code[end:nl]
            end = nl + 1
            if not line_text.rstrip().endswith("\\") or nl == len(code):
                break
        replacement = code[m.end():min(end, len(code))]
        macros.append(MacroInfo(
            name=m.group(1), path=rel,
            line=line_of(code, m.start(1)),
            calls=_extract_calls(replacement)))
    return tuple(macros)


# --------------------------------------------------------- class parsing

_CLASS_RE = re.compile(
    r"\b(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_][\w]*(?:\s*::\s*[A-Za-z_]\w*)*)\s*"
    r"(?:final\s*)?(?::[^{;]*)?\{")

_MUTEX_MEMBER_RE = re.compile(
    r"\bstd\s*::\s*((?:recursive_|shared_|timed_|recursive_timed_)?mutex)"
    r"\s+([A-Za-z_]\w*)")
_ATOMIC_MEMBER_RE = re.compile(
    r"\bstd\s*::\s*atomic\s*<[^;{]*?>\s+([A-Za-z_]\w*)")
_ANNOTATION_RE = re.compile(
    r"\b(CIM_GUARDED_BY|CIM_PT_GUARDED_BY|CIM_REQUIRES|CIM_EXCLUDES)"
    r"\s*\(([^)]*)\)")


def _match_brace(code: str, open_brace: int) -> int:
    """Offset of the `}` matching code[open_brace] == '{', or len(code)."""
    depth = 0
    for j in range(open_brace, len(code)):
        if code[j] == "{":
            depth += 1
        elif code[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(code)


def _flatten_class_body(code: str, open_brace: int, close_brace: int) -> str:
    """Class-scope text with nested brace regions blanked (newlines
    kept), offset-aligned with `code` from open_brace+1."""
    out: list[str] = []
    depth = 0
    for j in range(open_brace + 1, close_brace):
        ch = code[j]
        if ch == "{":
            depth += 1
            out.append(" ")
        elif ch == "}":
            depth -= 1
            out.append(" ")
        elif depth > 0:
            out.append(ch if ch == "\n" else " ")
        else:
            out.append(ch)
    return "".join(out)


def _extract_classes(code: str, rel: str) -> tuple[ClassInfo, ...]:
    classes: list[ClassInfo] = []
    for m in _CLASS_RE.finditer(code):
        # `enum class X {` is not a class scope.
        prefix = code[max(0, m.start() - 12):m.start()]
        if re.search(r"\benum\s*$", prefix):
            continue
        open_brace = m.end() - 1
        close_brace = _match_brace(code, open_brace)
        flat = _flatten_class_body(code, open_brace, close_brace)
        base = open_brace + 1

        mutexes = tuple(
            (mm.group(2), line_of(code, base + mm.start(2)))
            for mm in _MUTEX_MEMBER_RE.finditer(flat))
        atomics = tuple(am.group(1)
                        for am in _ATOMIC_MEMBER_RE.finditer(flat))
        annotations = tuple(
            AnnotationSite(macro=am.group(1), arg=am.group(2).strip(),
                           line=line_of(code, base + am.start()))
            for am in _ANNOTATION_RE.finditer(flat))
        classes.append(ClassInfo(
            name=re.sub(r"\s+", "", m.group(2)), path=rel,
            line=line_of(code, m.start()),
            mutexes=mutexes, atomics=atomics, annotations=annotations))
    return tuple(classes)


# ------------------------------------------------------------ file index


def index_file(code: str, rel: str) -> FileIndex:
    """Indexes one TU from its stripped text."""
    functions: list[FunctionInfo] = []
    for block in function_blocks(code):
        name, qual, name_offset = _signature_name(code, block)
        functions.append(FunctionInfo(
            name=name, qual_name=qual, path=rel,
            line=line_of(code, name_offset),
            is_root=bool(_ROOT_RE.search(
                _signature_region(code, name_offset))),
            calls=_extract_calls(block.body),
            taints=_scan_taints(block.body, block.start + 1, code),
            flow=extract_flow_facts(code, block.start, block.end,
                                    name_offset)))
    return FileIndex(functions=tuple(functions),
                     macros=_extract_macros(code, rel),
                     classes=_extract_classes(code, rel))


# ------------------------------------------------------- (de)serializing


def _flow_to_json(flow: FlowFacts) -> dict:
    return {
        "seed_sites": [[s.line, s.rng, s.proven, s.detail]
                       for s in flow.seed_sites],
    }


def _flow_from_json(data: dict) -> FlowFacts:
    return FlowFacts(
        seed_sites=tuple(SeedSite(line=s[0], rng=s[1], proven=s[2],
                                  detail=s[3])
                         for s in data["seed_sites"]),
    )


def _file_index_to_json(fi: FileIndex) -> dict:
    return {
        "functions": [{
            "name": f.name, "qual_name": f.qual_name, "path": f.path,
            "line": f.line, "is_root": f.is_root, "calls": list(f.calls),
            "taints": [dataclasses.asdict(t) for t in f.taints],
            "flow": _flow_to_json(f.flow),
        } for f in fi.functions],
        "macros": [dataclasses.asdict(m) for m in fi.macros],
        "classes": [{
            "name": c.name, "path": c.path, "line": c.line,
            "mutexes": [list(mx) for mx in c.mutexes],
            "atomics": list(c.atomics),
            "annotations": [dataclasses.asdict(a) for a in c.annotations],
        } for c in fi.classes],
    }


def _file_index_from_json(data: dict) -> FileIndex:
    return FileIndex(
        functions=tuple(FunctionInfo(
            name=f["name"], qual_name=f["qual_name"], path=f["path"],
            line=f["line"], is_root=f["is_root"], calls=tuple(f["calls"]),
            taints=tuple(TaintSite(**t) for t in f["taints"]),
            flow=_flow_from_json(f["flow"]))
            for f in data["functions"]),
        macros=tuple(MacroInfo(name=m["name"], path=m["path"],
                               line=m["line"], calls=tuple(m["calls"]))
                     for m in data["macros"]),
        classes=tuple(ClassInfo(
            name=c["name"], path=c["path"], line=c["line"],
            mutexes=tuple((mx[0], mx[1]) for mx in c["mutexes"]),
            atomics=tuple(c["atomics"]),
            annotations=tuple(AnnotationSite(**a)
                              for a in c["annotations"]))
            for c in data["classes"]),
    )


def build_index(root: Path, files: list[Path],
                cache_path: Path | None = None) -> ProjectIndex:
    """Indexes `files` (absolute paths under `root`), reusing the JSON
    cache at `cache_path` for files whose *content hash* is unchanged.

    Reuse is decided on sha256 of the file bytes, never on (mtime, size)
    alone: a `touch` without an edit still hits the cache, and a same-
    size edit (or CI clock skew restoring an old mtime) can never serve
    a stale whole-program index. mtime/size are stored as diagnostics.
    The cache is best-effort: unreadable/unwritable caches degrade to a
    full re-parse, never to an error."""
    with stats.GLOBAL.phase("index"):
        return _build_index(root, files, cache_path)


def _build_index(root: Path, files: list[Path],
                 cache_path: Path | None) -> ProjectIndex:
    cache: dict = {}
    if cache_path is not None and cache_path.is_file():
        try:
            loaded = json.loads(cache_path.read_text(encoding="utf-8"))
            if loaded.get("version") == INDEX_VERSION:
                cache = loaded.get("files", {})
        except (OSError, ValueError):
            cache = {}

    out_files: dict[str, FileIndex] = {}
    out_cache: dict[str, dict] = {}
    for path in files:
        rel = str(PurePosixPath(*path.relative_to(root).parts))
        try:
            stat = path.stat()
            raw_bytes = path.read_bytes()
        except OSError:
            continue
        digest = contenthash.content_hash(raw_bytes)
        key = {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size,
               "sha256": digest}
        entry = cache.get(rel)
        if entry is not None and entry.get("sha256") == digest:
            try:
                out_files[rel] = _file_index_from_json(entry["index"])
                out_cache[rel] = {**entry, **key}
                continue
            except (KeyError, TypeError):
                pass  # malformed entry: re-parse
        raw = raw_bytes.decode("utf-8", errors="replace")
        fi = index_file(strip_comments_and_strings(raw), rel)
        out_files[rel] = fi
        out_cache[rel] = {**key, "index": _file_index_to_json(fi)}

    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            cache_path.write_text(
                json.dumps({"version": INDEX_VERSION, "files": out_cache}),
                encoding="utf-8")
        except OSError:
            pass
    return ProjectIndex(root=root, files=out_files)
