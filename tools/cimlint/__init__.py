"""cimlint — project-specific static analysis for the cimanneal tree.

Grown from the single-file determinism lint of PR 1 into a small framework:

  * tokenizer.py  — comment/string stripping that understands C++14 digit
                    separators and raw string literals
  * rules.py      — Rule dataclass, the registry, and the per-file scan
  * rules_*.py    — the rule packs (RNG discipline, header hygiene, anneal
                    hot path, layering DAG, CIM counter charging, unit
                    hygiene, thread/SIMD/store/telemetry confinement,
                    lock annotations, determinism taint, seed provenance)
  * nolint.py     — NOLINT(<rule>) suppression shared by every rule
  * baseline.py   — checked-in grandfather list for intentional findings
  * output.py     — text / JSON / SARIF 2.1.0 renderers
  * engine.py     — file collection and (optionally parallel) scanning
  * index.py      — cross-TU project index (content-hash cached) feeding
                    the @project_rule packs and the flow-facts summaries
  * callgraph.py  — name-resolved call graph and root-to-sink BFS
  * cfg.py        — per-function control-flow graphs (branch, loop and
                    early-exit edges)
  * dataflow.py   — generic RPO worklist solver over cfg.Cfg
  * flowfacts.py  — per-function dataflow summaries: RNG seed provenance
                    proofs
  * stats.py      — per-phase / per-rule wall-time accounting (--stats)
  * rulesdoc.py   — RULES.md generated from the registry
  * cli.py        — the command-line front end behind tools/lint.py

The public entry point is cli.main(); `python3 tools/lint.py --help` shows
the interface and `--explain <rule>` documents any individual rule.
"""

from __future__ import annotations

__version__ = "3.0.0"
