"""WIRE rules: wire-protocol conformance against the contract manifest.

The contracts both sides of a process boundary key on — structured
events, the error taxonomy, metric names — are declared once in
:mod:`repro.contracts`.  The three rules here check the code against
that manifest:

WIRE001  every ``emit(...)`` site uses a declared event name and
         supplies exactly the declared fields (required present,
         nothing undeclared).

WIRE003  the retry deciders (``supervise.classify``, the worker's
         ``_post_shard``, the coordinator's ``_http_error``) route
         through the manifest helpers rather than re-deriving
         retryability locally, every literal worker error code is
         declared with the declared ``retryable=`` verdict, and every
         taxonomy class exists.

WIRE004  every literal metric name produced or read anywhere in the
         project is declared, with the right kind and labels.
"""

from __future__ import annotations

import ast

from repro import contracts
from repro.analysis.callgraph import CallGraph, dotted_name
from repro.analysis.contracts_rules import (
    constant_str,
    emit_call_sites,
    emit_name_candidates,
    functions_named,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProjectModel
from repro.analysis.visitor import ProjectRule, register_project

#: modules that define the contracts rather than speak them
EVENTS_MODULE = "obs/events.py"
CONTRACTS_MODULE = "contracts.py"

SUPERVISE_MODULE = "service/supervise.py"
WORKER_MODULE = "cluster/worker.py"
COORDINATOR_MODULE = "cluster/coordinator.py"

#: exception-class modules; when both are present WIRE003 demands every
#: taxonomy row's class actually exists
ERROR_CLASS_MODULES = ("exceptions.py", "service/errors.py")


def _carries_manifest(project: ProjectModel) -> bool:
    """Whether the analysed tree opts into the contract gates.

    The WIRE family judges code against the live manifest, so it runs
    only when the tree being analysed carries the manifest module
    itself — ``src`` always does; fixture packages opt in with a
    ``repro/contracts.py`` marker.  Without this gate every fixture tree
    that mimics a real module path (``repro/core/disc.py`` for HOT001)
    would be judged as a drifted copy of the real thing.
    """
    return CONTRACTS_MODULE in project.modules_by_rel


@register_project
class EmitContractRule(ProjectRule):
    """WIRE001: emit sites must match the declared event vocabulary."""

    rule_id = "WIRE001"
    title = "emit() site disagrees with the declared event vocabulary"
    rationale = (
        "Structured events are a wire format: the soak grader, journal "
        "replay and obs-smoke all key on event names and fields.  An "
        "undeclared name or field set silently breaks those consumers."
    )
    scopes = ()

    def check(self, project: ProjectModel, graph: CallGraph) -> list[Finding]:
        if not _carries_manifest(project):
            return []
        findings: list[Finding] = []
        auto = set(contracts.AUTO_FIELDS)
        envelope = set(contracts.ENVELOPE_PARAMS)
        for module in project.modules.values():
            if module.rel_path in (EVENTS_MODULE, CONTRACTS_MODULE):
                continue
            for call in emit_call_sites(graph, module):
                names = emit_name_candidates(call, module, graph)
                if names is None:
                    continue  # dynamic event name; out of static reach
                if any(kw.arg is None for kw in call.keywords):
                    continue  # **fields splat; out of static reach
                provided = {
                    kw.arg for kw in call.keywords if kw.arg is not None
                } - {"level"}
                for name in names:
                    spec = contracts.EVENTS.get(name)
                    if spec is None:
                        findings.append(
                            Finding(
                                self.rule_id,
                                module.path,
                                call.lineno,
                                call.col_offset,
                                f"emit of event {name!r} not declared in "
                                "contracts.EVENTS",
                            )
                        )
                        continue
                    missing = sorted(set(spec.required) - provided - auto)
                    extras = sorted(
                        provided
                        - set(spec.required)
                        - set(spec.optional)
                        - envelope
                    )
                    if missing:
                        findings.append(
                            Finding(
                                self.rule_id,
                                module.path,
                                call.lineno,
                                call.col_offset,
                                f"emit of {name!r} misses declared required "
                                f"field(s) {', '.join(missing)}",
                            )
                        )
                    if extras:
                        findings.append(
                            Finding(
                                self.rule_id,
                                module.path,
                                call.lineno,
                                call.col_offset,
                                f"emit of {name!r} supplies undeclared "
                                f"field(s) {', '.join(extras)}",
                            )
                        )
        return sorted(findings, key=Finding.sort_index)


@register_project
class ErrorTaxonomyRule(ProjectRule):
    """WIRE003: the error taxonomy has one source of truth."""

    rule_id = "WIRE003"
    title = "error taxonomy drift between code and contracts"
    rationale = (
        "Retries key on status and the retryable flag; a locally "
        "re-derived retry decision or an undeclared worker error code "
        "makes the coordinator retry what the service declared permanent."
    )
    scopes = ("service/", "cluster/")

    def check(self, project: ProjectModel, graph: CallGraph) -> list[Finding]:
        if not _carries_manifest(project):
            return []
        findings: list[Finding] = []
        supervise = project.modules_by_rel.get(SUPERVISE_MODULE)
        if supervise is not None:
            findings.extend(
                self._require_call(
                    project,
                    graph,
                    supervise,
                    "classify",
                    "repro.contracts.is_retryable",
                    "classify() must derive retryability from "
                    "contracts.is_retryable, not a local table",
                )
            )
        coordinator = project.modules_by_rel.get(COORDINATOR_MODULE)
        if coordinator is not None:
            findings.extend(
                self._require_call(
                    project,
                    graph,
                    coordinator,
                    "_http_error",
                    "repro.contracts.retryable_for_status",
                    "_http_error() must take its default retryability from "
                    "contracts.retryable_for_status",
                )
            )
        worker = project.modules_by_rel.get(WORKER_MODULE)
        if worker is not None:
            findings.extend(self._check_worker(project, graph, worker))
        if all(
            rel in project.modules_by_rel for rel in ERROR_CLASS_MODULES
        ):
            findings.extend(self._check_classes_exist(project))
        return sorted(findings, key=Finding.sort_index)

    def _require_call(
        self,
        project: ProjectModel,
        graph: CallGraph,
        module: ModuleInfo,
        fn_name: str,
        target: str,
        message: str,
    ) -> list[Finding]:
        functions = functions_named(project, module, fn_name)
        if not functions:
            return [
                Finding(
                    self.rule_id,
                    module.path,
                    1,
                    0,
                    f"{module.rel_path} no longer defines {fn_name}(), the "
                    "declared retry-decision chokepoint",
                )
            ]
        for fn in functions:
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                if graph.resolver.resolve_dotted_in_module(module, dotted) == target:
                    return []
        first = functions[0]
        return [
            Finding(
                self.rule_id,
                module.path,
                first.node.lineno,
                first.node.col_offset,
                message,
            )
        ]

    def _check_worker(
        self, project: ProjectModel, graph: CallGraph, module: ModuleInfo
    ) -> list[Finding]:
        findings = self._require_call(
            project,
            graph,
            module,
            "_post_shard",
            "repro.contracts.is_retryable",
            "the worker 500 path must derive retryable= from "
            "contracts.is_retryable",
        )
        legal_codes = set(contracts.WORKER_ERROR_CODES)
        legal_codes.update(rule.code for rule in contracts.ERROR_TAXONOMY)
        legal_codes.add(contracts.INTERNAL_ERROR.code)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted not in ("_error_doc", "_error_body"):
                continue
            if not node.args:
                continue
            code = constant_str(node.args[0])
            if code is None:
                continue  # dynamic code (exception class name)
            if code not in legal_codes:
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        node.lineno,
                        node.col_offset,
                        f"worker error code {code!r} not declared in "
                        "contracts.WORKER_ERROR_CODES or the error taxonomy",
                    )
                )
                continue
            declared = contracts.WORKER_ERROR_CODES.get(code)
            if declared is None:
                continue
            for kw in node.keywords:
                if kw.arg != "retryable":
                    continue
                if (
                    isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, bool)
                    and kw.value.value != declared[1]
                ):
                    findings.append(
                        Finding(
                            self.rule_id,
                            module.path,
                            node.lineno,
                            node.col_offset,
                            f"worker error {code!r} declares "
                            f"retryable={declared[1]} but this body says "
                            f"{kw.value.value}",
                        )
                    )
        return findings

    def _check_classes_exist(self, project: ProjectModel) -> list[Finding]:
        findings: list[Finding] = []
        simple_names = {cls.name for cls in project.classes.values()}
        anchor = project.modules_by_rel[ERROR_CLASS_MODULES[0]]
        for rule in contracts.ERROR_TAXONOMY:
            if rule.exception not in simple_names:
                findings.append(
                    Finding(
                        self.rule_id,
                        anchor.path,
                        1,
                        0,
                        f"contracts.ERROR_TAXONOMY maps {rule.exception} "
                        "but no such exception class exists",
                    )
                )
        return findings


@register_project
class MetricsRegistryRule(ProjectRule):
    """WIRE004: every literal metric site matches the declared registry."""

    rule_id = "WIRE004"
    title = "metric name outside the declared registry"
    rationale = (
        "bench/compare.py, soak_report.py and the Prometheus renderer "
        "select metrics by literal name; a site producing an undeclared "
        "name, kind or label set is a series those readers never see."
    )
    scopes = ()

    #: the registry itself produces nothing
    EXEMPT = (("obs/metrics.py"), CONTRACTS_MODULE)
    KINDS = ("counter", "gauge", "histogram")
    #: keyword arguments that are instrument configuration, not labels
    CONFIG_KWARGS = frozenset({"bounds"})

    def check(self, project: ProjectModel, graph: CallGraph) -> list[Finding]:
        if not _carries_manifest(project):
            return []
        findings: list[Finding] = []
        for module in project.modules.values():
            if module.rel_path in self.EXEMPT:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in self.KINDS:
                    findings.extend(self._check_site(module, node, func.attr))
                elif func.attr == "counter_total" and node.args:
                    name = constant_str(node.args[0])
                    if name is not None and name not in contracts.METRICS:
                        findings.append(
                            Finding(
                                self.rule_id,
                                module.path,
                                node.lineno,
                                node.col_offset,
                                f"counter_total reads metric {name!r} not "
                                "declared in contracts.METRICS",
                            )
                        )
        return sorted(findings, key=Finding.sort_index)

    def _check_site(
        self,
        module: ModuleInfo,
        node: ast.Call,
        kind: str,
    ) -> list[Finding]:
        if not node.args:
            return []
        name = constant_str(node.args[0])
        if name is None:
            return []  # dynamic name (worker report absorption)
        spec = contracts.METRICS.get(name)
        if spec is None:
            return [
                Finding(
                    self.rule_id,
                    module.path,
                    node.lineno,
                    node.col_offset,
                    f"metric {name!r} not declared in contracts.METRICS",
                )
            ]
        findings: list[Finding] = []
        if spec.kind != kind:
            findings.append(
                Finding(
                    self.rule_id,
                    module.path,
                    node.lineno,
                    node.col_offset,
                    f"metric {name!r} is declared a {spec.kind} but "
                    f"produced here as a {kind}",
                )
            )
        labels = {
            kw.arg for kw in node.keywords if kw.arg is not None
        } - self.CONFIG_KWARGS
        extras = sorted(labels - set(spec.labels))
        if extras:
            findings.append(
                Finding(
                    self.rule_id,
                    module.path,
                    node.lineno,
                    node.col_offset,
                    f"metric {name!r} produced with undeclared label(s) "
                    f"{', '.join(extras)}",
                )
            )
        return findings
