"""FLOW002: cancellation liveness of the resumable algorithms (system S24).

The ``supports_resume`` algorithms (``core/discall.py``,
``core/parallel.py``) must reach ``CancelToken.checkpoint()`` from the
body of every outermost loop, either lexically or through the call
graph — otherwise a cancel or checkpoint request can stall behind an
unbounded scan.  Inner loops are judged as part of their outermost
statement; comprehensions are exempt (bounded by their iterable, no
checkpoint side effects possible).
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectModel
from repro.analysis.visitor import ProjectRule, iter_subtree, register_project

#: modules implementing ``supports_resume`` algorithms
RESUME_MODULES = ("core/discall.py", "core/parallel.py")
CANCEL_MODULE = "core/cancel.py"
CANCEL_TOKEN = "CancelToken"


def _outer_loops(
    fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.For | ast.AsyncFor | ast.While]:
    """Outermost loop statements of one function body (nested defs skipped)."""
    loops: list[ast.For | ast.AsyncFor | ast.While] = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                if not in_loop:
                    loops.append(child)
                visit(child, True)
            else:
                visit(child, in_loop)

    visit(fn_node, False)
    return loops


@register_project
class ResumableLoopCheckpointRule(ProjectRule):
    """FLOW002: resumable-algorithm loops reach a cancel checkpoint."""

    rule_id = "FLOW002"
    title = "loop in a supports_resume algorithm reaches no checkpoint"
    rationale = (
        "Cancellation and checkpointing are polled at "
        "CancelToken.checkpoint(); a loop that never reaches one can "
        "stall a cancel or lose arbitrarily much progress on a crash."
    )
    scopes = RESUME_MODULES

    def check(self, project: ProjectModel, graph: CallGraph) -> list[Finding]:
        token_cls = None
        cancel_module = project.modules_by_rel.get(CANCEL_MODULE)
        if cancel_module is not None:
            token_cls = cancel_module.classes.get(CANCEL_TOKEN)
        if token_cls is None:
            for cls in project.classes.values():
                if cls.name == CANCEL_TOKEN:
                    token_cls = cls
                    break
        checkpoints: set[str] = set()
        if token_cls is not None:
            for sub in graph.resolver.subclasses_of(token_cls.qname):
                method = graph.resolver.find_method(sub, "checkpoint")
                if method is not None:
                    checkpoints.add(method.qname)
        findings: list[Finding] = []
        for rel in RESUME_MODULES:
            module = project.modules_by_rel.get(rel)
            if module is None:
                continue
            for fn in project.functions.values():
                if fn.module is not module:
                    continue
                for loop in _outer_loops(fn.node):
                    if self._reaches_checkpoint(loop, fn, graph, checkpoints):
                        continue
                    findings.append(
                        Finding(
                            self.rule_id,
                            module.path,
                            loop.lineno,
                            loop.col_offset,
                            f"loop in {fn.qname} reaches no "
                            "CancelToken.checkpoint(); a cancel request "
                            "stalls until the loop finishes",
                        )
                    )
        return sorted(findings, key=Finding.sort_index)

    def _reaches_checkpoint(
        self,
        loop: ast.For | ast.AsyncFor | ast.While,
        fn: FunctionInfo,
        graph: CallGraph,
        checkpoints: set[str],
    ) -> bool:
        if not checkpoints:
            return False
        seeds: list[str] = []
        for node in iter_subtree(loop, skip_functions=True):
            if not isinstance(node, ast.Call):
                continue
            for site in graph.calls_from(fn.qname):
                if site.node is node and site.callee is not None:
                    seeds.append(site.callee)
                    break
        return bool(graph.reachable(seeds) & checkpoints)
