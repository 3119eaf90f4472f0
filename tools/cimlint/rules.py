"""Rule model and registry.

A rule is a named check over one file. Rules declare themselves with the
@rule decorator; the registry drives them, applies the shared NOLINT
suppression, and feeds `--explain` / `--list-rules` / the SARIF rule
metadata from the same declaration — one source of truth per rule.

Project rules are the cross-TU counterpart: they see the whole-program
`ProjectIndex` (tools/cimlint/index.py) instead of one file, declare
themselves with @project_rule, and share everything else — NOLINT
suppression at the finding site, baseline fingerprints, --explain text,
SARIF metadata. The two registries use one namespace so a NOLINT
(det-taint) audits identically to a NOLINT(raw-thread).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Callable, Iterable

from . import stats
from .findings import Finding
from .nolint import NolintIndex

if TYPE_CHECKING:
    from .index import ProjectIndex

HEADER_EXTS = {".hpp", ".h", ".hh"}
SOURCE_EXTS = {".cpp", ".cc", ".cxx"} | HEADER_EXTS


@dataclasses.dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    root: Path
    rel: PurePosixPath        # repo-relative posix path
    raw: str                  # file contents as read
    code: str                 # comments/strings blanked (tokenizer)
    directives: str           # comments blanked, strings kept — for rules
                              # that read literal contents (#include paths)
    raw_lines: list[str]      # raw.splitlines()
    config: "LintConfig"

    @property
    def is_header(self) -> bool:
        return PurePosixPath(self.rel).suffix in HEADER_EXTS

    def top_dir(self) -> str:
        return self.rel.parts[0] if self.rel.parts else ""

    def module(self) -> str | None:
        """'cim' for src/cim/..., None outside src/."""
        parts = self.rel.parts
        if len(parts) >= 3 and parts[0] == "src":
            return parts[1]
        return None

    def finding(self, line: int, rule: str, message: str) -> Finding:
        snippet = self.raw_lines[line - 1] if 0 < line <= len(self.raw_lines) else ""
        return Finding(path=str(self.rel), line=line, rule=rule,
                       message=message, snippet=snippet)


@dataclasses.dataclass
class LintConfig:
    """Tree-level configuration shared by the rules."""

    layers: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    top_layers: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    summary: str           # one line, shown in findings and --list-rules
    explanation: str       # multi-paragraph --explain text
    check: Callable[[FileContext], Iterable[Finding]]
    suppressible: bool = True


@dataclasses.dataclass(frozen=True)
class ProjectRule:
    """A whole-program rule: checked once per tree over the cross-TU
    index, not once per file."""

    name: str
    summary: str
    explanation: str
    check: Callable[["ProjectIndex", "LintConfig"], Iterable[Finding]]
    suppressible: bool = True


_REGISTRY: dict[str, Rule] = {}
_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def rule(name: str, summary: str, explanation: str, suppressible: bool = True):
    """Decorator registering a per-file rule's check function."""

    def wrap(fn: Callable[[FileContext], Iterable[Finding]]):
        if name in _REGISTRY or name in _PROJECT_REGISTRY:
            raise ValueError(f"duplicate rule name: {name}")
        _REGISTRY[name] = Rule(name=name, summary=summary,
                               explanation=explanation, check=fn,
                               suppressible=suppressible)
        return fn

    return wrap


def project_rule(name: str, summary: str, explanation: str,
                 suppressible: bool = True):
    """Decorator registering a whole-program rule's check function."""

    def wrap(fn: Callable[["ProjectIndex", "LintConfig"], Iterable[Finding]]):
        if name in _REGISTRY or name in _PROJECT_REGISTRY:
            raise ValueError(f"duplicate rule name: {name}")
        _PROJECT_REGISTRY[name] = ProjectRule(
            name=name, summary=summary, explanation=explanation, check=fn,
            suppressible=suppressible)
        return fn

    return wrap


def all_rules() -> dict[str, Rule]:
    _load_rule_packs()
    return dict(_REGISTRY)


def all_project_rules() -> dict[str, ProjectRule]:
    _load_rule_packs()
    return dict(_PROJECT_REGISTRY)


def known_rule_names() -> set[str]:
    """Every rule name a NOLINT may legitimately reference."""
    return set(all_rules()) | set(all_project_rules())


def _load_rule_packs() -> None:
    # Importing the packs registers their rules (idempotent).
    from . import (  # noqa: F401  (import side effects)
        rules_anneal, rules_cim, rules_determinism, rules_header,
        rules_layering, rules_locks, rules_rng, rules_seedflow,
        rules_simd, rules_store, rules_telemetry, rules_thread,
        rules_units,
    )


@rule(
    "nolint-unknown-rule",
    "NOLINT marker is bare or names a rule that does not exist",
    """A NOLINT with a typo in the rule name suppresses nothing — the
finding it meant to silence still fires, or worse, the author believes a
risky site is vouched for when it is not. Every NOLINT marker must name
at least one real cimlint rule (see --list-rules); clang-tidy-namespaced
names (bugprone-*, performance-*, ...) belong to clang-tidy and are left
alone. Bare `NOLINT` without a rule list is rejected for the same reason:
it documents nothing and would blanket-suppress rules the author never
reviewed. No other tool reads cimlint's NOLINT markers, so without this
audit a typo in one is invisible.

This audit is not itself suppressible.""",
    suppressible=False,
)
def _nolint_audit(_ctx: FileContext):
    # Findings are produced by NolintIndex.audit() in scan_file(); the
    # registration here gives the rule a name, --explain text and SARIF
    # metadata like any other.
    return ()


def scan_file(ctx: FileContext) -> list[Finding]:
    """Runs every registered rule on one file, honouring NOLINT."""
    rules = all_rules()
    nolint = NolintIndex(ctx.raw)
    findings: list[Finding] = []
    for r in rules.values():
        t0 = time.perf_counter()
        produced = list(r.check(ctx))
        kept = [f for f in produced
                if not (r.suppressible and nolint.suppresses(r.name, f.line))]
        stats.GLOBAL.add_rule(r.name, time.perf_counter() - t0, len(kept))
        findings.extend(kept)
    # The audit rule: malformed / unknown NOLINT markers. Not itself
    # suppressible — a NOLINT cannot vouch for another NOLINT. Project
    # rule names are valid targets too (their suppressions live in the
    # same files).
    findings.extend(nolint.audit(str(ctx.rel), known_rule_names(),
                                 ctx.raw_lines))
    findings.sort()
    return findings
