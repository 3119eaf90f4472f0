"""Lock discipline: annotated ownership, scoped acquisition.

Three rules enforce the thread-annotation contract from
src/util/thread_annotations.hpp:

  * `lock-raw-call` (per-file): mutexes are acquired through scoped
    guards (std::lock_guard / std::unique_lock / std::scoped_lock),
    never via member `.lock()` / `.unlock()` calls — a manual unlock on
    an early return or exception path is the classic silent deadlock.
  * `lock-mutex-unannotated` (project): every std::mutex member of a
    first-party class must be referenced by at least one CIM_GUARDED_BY
    / CIM_PT_GUARDED_BY / CIM_REQUIRES / CIM_EXCLUDES annotation in that
    class, so the data it protects is machine-readable (and checkable by
    clang -Wthread-safety when available).
  * `lock-annotation-unknown` (project): the argument of every CIM_*
    lock annotation must name a declared mutex member of the enclosing
    class — a typo'd annotation documents (and, under clang, checks)
    nothing.
"""

from __future__ import annotations

import re
from typing import Iterable

from .findings import Finding
from .index import ProjectIndex
from .rules import FileContext, LintConfig, project_rule, rule
from .tokenizer import line_of

_RAW_LOCK_CALL = re.compile(
    r"(?:\.|->)\s*((?:try_)?(?:un)?lock(?:_shared)?)\s*\(")

#: Annotation macros whose argument(s) must each be a mutex member of the
#: enclosing class.
_LOCK_ANNOTATIONS = ("CIM_GUARDED_BY", "CIM_PT_GUARDED_BY",
                     "CIM_REQUIRES", "CIM_EXCLUDES")


@rule(
    "lock-raw-call",
    "raw .lock()/.unlock() call; use a scoped guard "
    "(std::lock_guard/std::unique_lock)",
    """A manual mutex.lock() obliges every exit path — returns, breaks,
exceptions — to run the matching unlock(); the first forgotten path is a
deadlock that only reproduces under contention. Scoped guards make the
critical section a lexical region: std::lock_guard for plain sections,
std::unique_lock where a condition_variable needs to drop and reacquire,
std::scoped_lock for multi-mutex acquisition with deadlock-free
ordering. GCC has no warning for a missed unlock, and a sanitizer sees
one only on a run that takes the forgotten exit path; a guard rules it
out on every path.

The guard types call .lock()/.unlock() internally, but user code never
should. A site that genuinely needs manual control (e.g. handing a
locked mutex across an ABI boundary) carries NOLINT(lock-raw-call) with
a justification.""",
)
def _lock_raw_call(ctx: FileContext) -> Iterable[Finding]:
    for m in _RAW_LOCK_CALL.finditer(ctx.code):
        yield ctx.finding(
            line_of(ctx.code, m.start()), "lock-raw-call",
            f"raw .{m.group(1)}() call; acquire through a scoped guard "
            "(std::lock_guard / std::unique_lock / std::scoped_lock)")


def _annotation_args(arg_text: str) -> list[str]:
    return [a.strip() for a in arg_text.split(",") if a.strip()]


@project_rule(
    "lock-mutex-unannotated",
    "std::mutex member not referenced by any CIM_* lock annotation in "
    "its class",
    """Every mutex exists to protect specific state; a mutex member with
no CIM_GUARDED_BY / CIM_PT_GUARDED_BY / CIM_REQUIRES / CIM_EXCLUDES
annotation anywhere in its class leaves that relationship in the
author's head. Annotate the protected members with
CIM_GUARDED_BY(the_mutex) (and lock-order contracts on methods with
CIM_REQUIRES / CIM_EXCLUDES) so the ownership is machine-readable:
cimlint checks the annotations are present and well-formed on every
compiler, and clang -Wthread-safety verifies them against actual lock
sites when available (see src/util/thread_annotations.hpp). Under GCC
the annotations expand to nothing, so a missing one is invisible to the
build, and ThreadSanitizer checks executions, not declarations.

Scope: first-party runtime classes (src/). A mutex that truly guards
nothing-by-design (e.g. one serialising an external C API) carries
NOLINT(lock-mutex-unannotated) at its declaration.""",
)
def _mutex_unannotated(index: ProjectIndex, _config: LintConfig
                       ) -> Iterable[Finding]:
    for cls in index.all_classes():
        if not cls.path.startswith("src/"):
            continue
        referenced: set[str] = set()
        for ann in cls.annotations:
            if ann.macro in _LOCK_ANNOTATIONS:
                referenced.update(_annotation_args(ann.arg))
        for name, line in cls.mutexes:
            if name not in referenced:
                yield Finding(
                    path=cls.path, line=line, rule="lock-mutex-unannotated",
                    message=f"mutex member '{name}' of {cls.name} is not "
                            "referenced by any CIM_GUARDED_BY / "
                            "CIM_REQUIRES / CIM_EXCLUDES annotation in "
                            "the class")


@project_rule(
    "lock-annotation-unknown",
    "CIM_* lock annotation argument is not a mutex member of the "
    "enclosing class",
    """A CIM_GUARDED_BY(typo_mu_) compiles fine on GCC (the macros expand
to nothing there) and documents a mutex that does not exist — worse than
no annotation, because a reader trusts it. Every argument of
CIM_GUARDED_BY / CIM_PT_GUARDED_BY / CIM_REQUIRES / CIM_EXCLUDES inside
a class body must name a std::mutex member declared in that same class.

Scope: first-party runtime classes (src/). Annotations on out-of-line
definitions or naming non-member capabilities are outside this check's
model (DESIGN.md §13); if one is legitimately needed, suppress with
NOLINT(lock-annotation-unknown) and a justification.""",
)
def _annotation_unknown(index: ProjectIndex, _config: LintConfig
                        ) -> Iterable[Finding]:
    for cls in index.all_classes():
        if not cls.path.startswith("src/"):
            continue
        declared = {name for name, _line in cls.mutexes}
        for ann in cls.annotations:
            if ann.macro not in _LOCK_ANNOTATIONS:
                continue
            for arg in _annotation_args(ann.arg):
                if arg not in declared:
                    yield Finding(
                        path=cls.path, line=ann.line,
                        rule="lock-annotation-unknown",
                        message=f"{ann.macro}({arg}) in {cls.name} does "
                                f"not name a std::mutex member of the "
                                "class")
