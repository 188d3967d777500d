"""Lint engine: file walking, suppression comments, rule dispatch (system S24).

The engine parses each module once with :mod:`ast`, extracts
``# repro: allow[RULE]`` suppression comments with :mod:`tokenize`, runs
every in-scope rule through the single-pass visitor framework, filters
suppressed findings and returns the rest sorted by position.  It is
deliberately stdlib-only (``ast`` + ``tokenize``) so the gate adds no
dependency to the repo.

Suppression grammar: a comment ``# repro: allow[DISC002]`` (several ids
separated by commas are accepted) suppresses the named rules on its own
line; a comment alone on a line also covers the line below, so multi-line
statements can be annotated above their first line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Type

from repro.analysis.findings import PARSE_ERROR_ID, Finding
from repro.analysis.suppress import (
    effective_suppressions as _effective_suppressions,
)
from repro.analysis.suppress import parse_suppressions

# Importing the catalogs registers the default rules — both the per-file
# DISC/LINT rules and the whole-program CONC/FLOW/HOT/WIRE families, so that
# LINT001 recognises every id a suppression comment may legitimately name.
from repro.analysis import rules as _rules  # noqa: F401  (side-effect import)
from repro.analysis import conc as _conc  # noqa: F401  (side-effect import)
from repro.analysis import flow as _flow  # noqa: F401  (side-effect import)
from repro.analysis import hot as _hot  # noqa: F401  (side-effect import)
from repro.analysis import wire as _wire  # noqa: F401  (side-effect import)
from repro.analysis.visitor import (
    LintContext,
    Rule,
    expand_rule_selection,
    rule_catalog,
    walk_module,
)

__all__ = [
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]


def _resolve_rules(rule_ids: Sequence[str] | None) -> list[Type[Rule]]:
    catalog = rule_catalog()
    if rule_ids is None:
        return list(catalog.values())
    return [
        catalog[rule_id] for rule_id in expand_rule_selection(rule_ids, catalog)
    ]


def lint_source(
    source: str,
    path: str = "<memory>",
    rule_ids: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one module given as text; *path* drives rule scoping."""
    rule_classes = _resolve_rules(rule_ids)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno if exc.lineno is not None else 1
        col = exc.offset if exc.offset is not None else 0
        return [Finding(PARSE_ERROR_ID, path, line, col, f"syntax error: {exc.msg}")]
    comments = parse_suppressions(source)
    ctx = LintContext(path, source, tree, comments)
    active = [
        rule_class()
        for rule_class in rule_classes
        if rule_class.applies_to(ctx.rel_path)
    ]
    walk_module(tree, active, ctx)
    suppressed = _effective_suppressions(source, comments)
    kept = [
        finding
        for finding in ctx.findings
        if finding.rule_id not in suppressed.get(finding.line, frozenset())
    ]
    return sorted(kept, key=Finding.sort_index)


def lint_file(path: str | Path, rule_ids: Sequence[str] | None = None) -> list[Finding]:
    """Lint one file on disk."""
    target = Path(path)
    source = target.read_text(encoding="utf-8")
    return lint_source(source, path=str(target), rule_ids=rule_ids)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def lint_paths(
    paths: Iterable[str | Path], rule_ids: Sequence[str] | None = None
) -> tuple[list[Finding], int]:
    """Lint files and directories; returns (findings, files_checked)."""
    findings: list[Finding] = []
    checked = 0
    for file_path in iter_python_files(paths):
        checked += 1
        findings.extend(lint_file(file_path, rule_ids=rule_ids))
    return sorted(findings, key=Finding.sort_index), checked
