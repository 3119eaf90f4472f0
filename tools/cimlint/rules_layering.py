"""Include-direction enforcement against the declared layering DAG.

The allowed DAG lives in tools/cimlint/layers.toml — checked in, reviewed
like code, and verified acyclic at load time. Every `#include "a/b.hpp"`
in src/<module>/ whose first path segment names another module must be an
edge of the DAG.
"""

from __future__ import annotations

import re

from .rules import FileContext, rule
from .tokenizer import line_of

_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def check_acyclic(layers: dict[str, list[str]]) -> None:
    """Raises ValueError when the declared relation has a cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in layers}

    def visit(node: str, stack: list[str]) -> None:
        color[node] = GRAY
        for dep in layers.get(node, ()):  # unknown deps caught elsewhere
            if dep not in color:
                raise ValueError(
                    f"layers.toml: module '{node}' allows unknown module "
                    f"'{dep}'")
            if color[dep] == GRAY:
                cycle = " -> ".join(stack + [node, dep])
                raise ValueError(f"layers.toml: dependency cycle: {cycle}")
            if color[dep] == WHITE:
                visit(dep, stack + [node])
        color[node] = BLACK

    for module in layers:
        if color[module] == WHITE:
            visit(module, [])


@rule(
    "layer-dag",
    "include crosses the layering DAG declared in tools/cimlint/layers.toml",
    """The tree is layered (DESIGN.md "Static analysis"):

    src/util -> src/{geo,noise} -> src/{tsp,ising,cluster,cim,heuristics}
             -> src/anneal -> src/ppa -> src/core -> {bench,examples,
             tests,tools}

The exact allowed edges are declared in tools/cimlint/layers.toml (one
list per module; verified acyclic at load). An include whose first path
segment names a module outside the file's allowed list is a violation:
upward or sideways includes create hidden coupling that makes the
"refactor freely PR after PR" goal unsafe — e.g. the PPA models must
keep consuming hw::HardwareActivity rather than reaching up into the
annealer. No compiler checks include direction: an upward include
compiles and links, and CMake's target links allow whatever the
dependency chain happens to pull in.

To legalise a new edge, add it to layers.toml in the same PR and justify
it in the review; per-site NOLINT(layer-dag) is reserved for temporary
migrations.""",
)
def _layer_dag(ctx: FileContext):
    layers = ctx.config.layers
    if not layers:
        return
    module = ctx.module()
    if module is None:
        # bench/examples/tests/tools (and any file outside src/) are top
        # layers when declared so; unknown trees are left alone.
        return
    if module not in layers:
        yield ctx.finding(
            1, "layer-dag",
            f"module 'src/{module}' is not declared in "
            "tools/cimlint/layers.toml; add it with its allowed "
            "dependencies")
        return
    allowed = {module, *layers[module]}
    # Include paths are string literals, so match against the
    # comments-only-stripped view (ctx.directives), not ctx.code.
    for m in _INCLUDE.finditer(ctx.directives):
        target = m.group(1).split("/", 1)[0]
        if target not in layers:
            continue  # not a module-qualified include (e.g. gtest)
        if target not in allowed:
            yield ctx.finding(
                line_of(ctx.directives, m.start()), "layer-dag",
                f"src/{module} must not include \"{m.group(1)}\": "
                f"'{target}' is not among its allowed layers "
                f"({', '.join(sorted(allowed))}) — see "
                "tools/cimlint/layers.toml")
