"""Visitor framework and rule registry for the lint engine (system S24).

A :class:`Rule` is a stateful object instantiated once per linted module.
The engine walks the module's AST exactly once in pre-order, maintaining
the ancestor stack in a :class:`LintContext`, and hands every node to
every rule whose scope covers the module.  Rules report violations
through :meth:`LintContext.report`; suppression comments are applied by
the engine afterwards, so rules never need to know about them.

Registering a rule is one decorator::

    @register
    class MyRule(Rule):
        rule_id = "DISC042"
        ...

Scopes are path prefixes relative to the ``repro`` package root (for
example ``("core/", "mining/")`` or the exact file ``("core/disc.py",)``);
an empty scope tuple applies the rule to every module.
"""

from __future__ import annotations

import ast
import os
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, Sequence, Type

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.project import ProjectModel


def module_rel_path(path: str) -> str:
    """Path of a module relative to the ``repro`` package root.

    ``src/repro/core/disc.py`` maps to ``core/disc.py``; paths without a
    ``repro`` component are returned as given (normalised to ``/``).
    The fixture trees under ``tests/`` embed a ``repro`` component so
    that scoped rules can be exercised on fixture files.
    """
    parts = PurePosixPath(str(path).replace(os.sep, "/")).parts
    if "repro" in parts:
        anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        rel = parts[anchor + 1 :]
        if rel:
            return "/".join(rel)
    return "/".join(parts)


class LintContext:
    """Per-module state shared by the engine and the rules."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        allow_comments: Mapping[int, frozenset[str]],
    ) -> None:
        self.path = path
        self.rel_path = module_rel_path(path)
        self.source = source
        self.tree = tree
        #: suppression comments by the line they are written on (raw view;
        #: the engine derives the effective per-line suppression from it)
        self.allow_comments = dict(allow_comments)
        self.findings: list[Finding] = []
        self._stack: list[ast.AST] = []

    # -- ancestry ----------------------------------------------------------

    def inside(self, *node_types: type[ast.AST]) -> bool:
        """True when any ancestor is an instance of the given types."""
        return any(isinstance(node, node_types) for node in self._stack)

    # -- reporting ---------------------------------------------------------

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        """Record a violation of *rule* at *node*."""
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        self.report_at(rule, line, col, message)

    def report_at(self, rule: "Rule", line: int, col: int, message: str) -> None:
        """Record a violation at an explicit position."""
        self.findings.append(Finding(rule.rule_id, self.path, line, col, message))


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    rule_id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    #: path prefixes (relative to the package root) the rule applies to;
    #: empty means every module
    scopes: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def applies_to(cls, rel_path: str) -> bool:
        """True when the rule's scope covers the module at *rel_path*."""
        if not cls.scopes:
            return True
        return any(rel_path.startswith(scope) for scope in cls.scopes)

    def start_module(self, ctx: LintContext) -> None:
        """Hook called once before the walk of a module."""

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        """Hook called for every AST node (including the module itself)."""

    def finish_module(self, ctx: LintContext) -> None:
        """Hook called once after the walk of a module."""


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    existing = _REGISTRY.get(rule_class.rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def rule_catalog() -> dict[str, Type[Rule]]:
    """All registered per-file rules, keyed and sorted by rule id."""
    return dict(sorted(_REGISTRY.items()))


class ProjectRule:
    """Base class for whole-program rules run by ``repro check``.

    Unlike :class:`Rule`, a project rule sees every module at once: it is
    handed the parsed :class:`~repro.analysis.project.ProjectModel` and the
    resolved :class:`~repro.analysis.callgraph.CallGraph` and returns its
    findings directly.  Suppression comments are applied by the checker
    afterwards, exactly as the engine does for per-file rules.
    """

    rule_id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    #: path prefixes (relative to the package root) the rule reasons about;
    #: informational — project rules decide scope themselves
    scopes: ClassVar[tuple[str, ...]] = ()

    def check(self, project: "ProjectModel", graph: "CallGraph") -> list[Finding]:
        """Analyse the whole project; return the rule's findings."""
        raise NotImplementedError


_PROJECT_REGISTRY: dict[str, Type[ProjectRule]] = {}


def register_project(rule_class: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a whole-program rule to the registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    existing = _PROJECT_REGISTRY.get(rule_class.rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    _PROJECT_REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def project_rule_catalog() -> dict[str, Type[ProjectRule]]:
    """All registered whole-program rules, keyed and sorted by rule id."""
    return dict(sorted(_PROJECT_REGISTRY.items()))


def known_rule_ids() -> frozenset[str]:
    """Every registered rule id — per-file and whole-program alike.

    LINT001 validates suppression comments against this set, so adding a
    ``# repro: allow[CONC001]`` to a module the per-file linter also scans
    must not itself be a lint violation.
    """
    return frozenset(_REGISTRY) | frozenset(_PROJECT_REGISTRY)


def rule_family(rule_id: str) -> str:
    """The family of a rule id: the id with its trailing digits stripped.

    ``WIRE001`` -> ``WIRE``, ``DISC004`` -> ``DISC``.  ``--rules`` accepts
    families as well as exact ids, so ``--rules WIRE`` selects every
    contract rule without naming each one.
    """
    return rule_id.rstrip("0123456789")


def expand_rule_selection(
    rule_ids: Sequence[str], catalog: Mapping[str, object]
) -> list[str]:
    """Resolve exact ids and family prefixes against *catalog*'s keys.

    Each entry must be a registered rule id or the family of at least one
    registered rule; anything else raises :class:`ValueError` (the CLI
    maps that to exit code 2).  Order follows the catalog, deduplicated.
    """
    selected: list[str] = []
    for entry in rule_ids:
        if entry in catalog:
            matches = [entry]
        else:
            matches = [
                rule_id for rule_id in catalog if rule_family(rule_id) == entry
            ]
        if not matches:
            known = ", ".join(catalog)
            raise ValueError(
                f"unknown rule id or family {entry!r}; known: {known}"
            )
        for rule_id in matches:
            if rule_id not in selected:
                selected.append(rule_id)
    return selected


def rule_summaries() -> list[tuple[str, str, str, str]]:
    """(rule id, family, engine, one-line title) across both registries.

    The single source for ``repro lint --list-rules`` and ``repro check
    --list-rules``: the docs table in DEVELOPMENT.md is spot-checked
    against this, so per-file and whole-program rules must both appear.
    """
    rows: list[tuple[str, str, str, str]] = []
    for rule_id, per_file in rule_catalog().items():
        rows.append((rule_id, rule_family(rule_id), "lint", per_file.title))
    for rule_id, project in project_rule_catalog().items():
        rows.append((rule_id, rule_family(rule_id), "check", project.title))
    return sorted(rows)


def render_rule_summaries() -> str:
    """The ``--list-rules`` table shared by the linter and the checker."""
    rows = rule_summaries()
    width_id = max(len(row[0]) for row in rows)
    width_family = max(len(row[1]) for row in rows)
    lines = [
        f"{rule_id:<{width_id}}  {family:<{width_family}}  {engine:<5}  {title}"
        for rule_id, family, engine, title in rows
    ]
    return "\n".join(lines)


def walk_module(tree: ast.Module, rules: list[Rule], ctx: LintContext) -> None:
    """Single pre-order walk dispatching every node to every rule."""
    for rule in rules:
        rule.start_module(ctx)

    def recurse(node: ast.AST) -> None:
        for rule in rules:
            rule.visit(node, ctx)
        ctx._stack.append(node)
        for child in ast.iter_child_nodes(node):
            recurse(child)
        ctx._stack.pop()

    recurse(tree)
    for rule in rules:
        rule.finish_module(ctx)


def iter_subtree(node: ast.AST, *, skip_functions: bool = False) -> Iterator[ast.AST]:
    """Pre-order iteration over a subtree, optionally skipping nested defs.

    With ``skip_functions=True`` the bodies of nested function definitions
    are not entered (the nested definitions themselves are still yielded),
    which lets per-function rules scan each function exactly once.
    """
    yield node
    for child in ast.iter_child_nodes(node):
        if skip_functions and isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            yield child
            continue
        yield from iter_subtree(child, skip_functions=skip_functions)
