"""Whole-program checker behind ``repro check`` (system S24).

Parses every module under the given paths into one
:class:`~repro.analysis.project.ProjectModel`, builds the call graph and
runs the registered whole-program rules (CONC, FLOW, HOT, WIRE) over it.
Findings use the same :class:`~repro.analysis.findings.Finding` shape,
the same ``# repro: allow[RULE]`` suppressions and the same reporters as
the per-file linter, so ``repro check`` and ``repro lint`` compose in CI.

Both subcommands run through :mod:`repro.analysis.runner`, with the
same exit codes: 0 clean, 1 findings, 2 when the analysis itself could
not run (unparseable file, unknown rule, crash).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, Type

from repro.analysis.callgraph import build_call_graph

# Importing the rule families registers them.
from repro.analysis import conc as _conc  # noqa: F401  (side-effect import)
from repro.analysis import flow as _flow  # noqa: F401  (side-effect import)
from repro.analysis import hot as _hot  # noqa: F401  (side-effect import)
from repro.analysis import wire as _wire  # noqa: F401  (side-effect import)
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectModel, load_project
from repro.analysis.visitor import (
    ProjectRule,
    expand_rule_selection,
    project_rule_catalog,
)


def _resolve_project_rules(
    rule_ids: Sequence[str] | None,
) -> list[Type[ProjectRule]]:
    catalog = project_rule_catalog()
    if rule_ids is None:
        return list(catalog.values())
    return [
        catalog[rule_id]
        for rule_id in expand_rule_selection(rule_ids, catalog)
    ]


def check_project(
    project: ProjectModel, rule_ids: Sequence[str] | None = None
) -> list[Finding]:
    """Run the whole-program rules over an already-loaded project."""
    rule_classes = _resolve_project_rules(rule_ids)
    graph = build_call_graph(project)
    findings: list[Finding] = list(project.parse_errors)
    for rule_class in rule_classes:
        findings.extend(rule_class().check(project, graph))
    kept = [
        finding
        for finding in findings
        if finding.rule_id not in project.suppressions_for(finding)
    ]
    return sorted(kept, key=Finding.sort_index)


def check_paths(
    paths: Iterable[str | Path], rule_ids: Sequence[str] | None = None
) -> tuple[list[Finding], int]:
    """Check files/directories; returns (findings, modules_analysed)."""
    project = load_project(paths)
    findings = check_project(project, rule_ids=rule_ids)
    return findings, len(project.modules) + len(project.parse_errors)
