"""Shared AST helpers for the declared-contract rule family (system S24).

The WIRE rules check the code that emits events, answers errors and
produces metrics against the contracts declared in
:mod:`repro.contracts`.  This module holds the helpers they share:
locating functions by name and recognising ``emit(...)`` call sites
(and the event names they can carry) through import aliases.

The manifest itself is imported live (``repro.contracts``) rather than
parsed out of the analysed project: the checker always runs with the
real package importable, and fixture projects under ``tests/fixtures/``
are then judged against the same single source of truth as ``src/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import CallGraph, dotted_name
from repro.analysis.project import FunctionInfo, ModuleInfo, ProjectModel

#: resolved qnames of the event-emit entry points (module-level function
#: and its package re-export); sites reach these through import aliases
EMIT_QNAMES = frozenset({
    "repro.obs.events.emit",
    "repro.obs.emit",
})

#: the breaker-state -> event-name table in the manifest; a subscript of
#: it as an emit name means "one of the table's values"
BREAKER_EVENT_TABLE = "repro.contracts.BREAKER_EVENT_BY_STATE"


def constant_str(node: ast.AST | None) -> str | None:
    """The value of a string-literal expression, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _module_assignments(module: ModuleInfo) -> Iterator[tuple[ast.expr, ast.expr]]:
    """(target, value) for every module-level assignment statement."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                yield target, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            yield stmt.target, stmt.value


def module_str_dicts(module: ModuleInfo) -> dict[str, dict[str, str]]:
    """Module-level ``NAME = {"k": "v", ...}`` string-to-string dicts."""
    table: dict[str, dict[str, str]] = {}
    for target, value in _module_assignments(module):
        if not isinstance(target, ast.Name) or not isinstance(value, ast.Dict):
            continue
        entries: dict[str, str] = {}
        for key, item in zip(value.keys, value.values):
            key_text = constant_str(key)
            item_text = constant_str(item)
            if key_text is None or item_text is None:
                break
            entries[key_text] = item_text
        else:
            if entries:
                table[target.id] = entries
    return table


def functions_named(
    project: ProjectModel, module: ModuleInfo, name: str
) -> list[FunctionInfo]:
    """Functions/methods in *module* with the simple name *name*."""
    return [
        fn for fn in project.functions.values()
        if fn.module is module and fn.name == name
    ]


def emit_call_sites(
    graph: CallGraph, module: ModuleInfo
) -> list[ast.Call]:
    """Every ``emit(...)`` call in *module*, found through import aliases."""
    sites: list[ast.Call] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        resolved = graph.resolver.resolve_dotted_in_module(module, dotted)
        if resolved in EMIT_QNAMES:
            sites.append(node)
    return sites


def emit_name_candidates(
    call: ast.Call, module: ModuleInfo, graph: CallGraph
) -> tuple[str, ...] | None:
    """Possible event names at one emit site, or ``None`` when dynamic.

    A constant string is a single candidate.  A subscript of the
    manifest's breaker table (or of a module-level string-to-string dict
    constant) yields the table's values.  Anything else is dynamic and
    out of static reach.
    """
    if not call.args:
        return None
    name_expr = call.args[0]
    text = constant_str(name_expr)
    if text is not None:
        return (text,)
    if isinstance(name_expr, ast.Subscript):
        base = dotted_name(name_expr.value)
        if base is not None:
            if _is_breaker_table(name_expr.value, module, graph):
                from repro.contracts import BREAKER_EVENT_BY_STATE

                return tuple(sorted(BREAKER_EVENT_BY_STATE.values()))
            if isinstance(name_expr.value, ast.Name):
                local = module_str_dicts(module).get(name_expr.value.id)
                if local:
                    return tuple(sorted(local.values()))
    return None


def _is_breaker_table(
    expr: ast.expr, module: ModuleInfo, graph: CallGraph
) -> bool:
    """Whether *expr* denotes the manifest's breaker-event table.

    Either directly (``contracts.BREAKER_EVENT_BY_STATE``) or through a
    module-level alias (``_BREAKER_EVENTS = contracts.BREAKER_EVENT_BY_STATE``).
    """
    dotted = dotted_name(expr)
    if dotted is None:
        return False
    resolved = graph.resolver.resolve_dotted_in_module(module, dotted)
    if resolved == BREAKER_EVENT_TABLE:
        return True
    if isinstance(expr, ast.Name):
        for target, value in _module_assignments(module):
            if isinstance(target, ast.Name) and target.id == expr.id:
                alias = dotted_name(value)
                return alias is not None and (
                    graph.resolver.resolve_dotted_in_module(module, alias)
                    == BREAKER_EVENT_TABLE
                )
    return False
