"""WIRE rules: wire-protocol conformance against the contract manifest.

Every contract the distributed system speaks — structured events, JSON
wire schemas, the error taxonomy, metric names — is declared once in
:mod:`repro.contracts`.  The four rules here check both sides of each
contract against that manifest:

WIRE001  every ``emit(...)`` site uses a declared event name and
         supplies exactly the declared fields (required present,
         nothing undeclared).

WIRE002  JSON keys written by producers (dict literals, ``d["k"] =``)
         and keys read by consumers (``.get("k")``, ``d["k"]``,
         ``"k" in d``) inside the declared anchor functions must all
         belong to a declared schema, and — when every anchor module is
         present — the anchors together must cover the schema: a
         declared key nobody writes, or a ``read`` key nobody reads, is
         a dropped half of the contract.

WIRE003  the ``_ERROR_STATUS`` table in ``service/http.py`` must match
         ``contracts.ERROR_TAXONOMY`` row for row, every taxonomy class
         must exist, and the retry deciders (``supervise.classify``,
         the worker shard path, the coordinator's ``_http_error``) must
         route through the manifest helpers rather than re-deriving
         retryability locally.

WIRE004  every literal metric name produced anywhere in the project is
         declared with the right kind and labels, declared metrics with
         all their producer modules present are actually produced, and
         the ``bench/compare.py`` invariant list matches the metrics
         declared as its consumers.

Anchors are declarative: :data:`WIRE_ANCHORS` lists, per module, which
functions (or module constants) speak which schema in which direction.
A missing anchor in a present module is itself a finding — deleting a
producer or consumer does not silently shrink the checked surface.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro import contracts
from repro.analysis.callgraph import CallGraph, dotted_name
from repro.analysis.contracts_rules import (
    constant_str,
    emit_call_sites,
    emit_name_candidates,
    functions_named,
    module_assign_value,
    module_str_constants,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProjectModel
from repro.analysis.visitor import ProjectRule, register_project

#: modules that define the contracts rather than speak them
EVENTS_MODULE = "obs/events.py"
CONTRACTS_MODULE = "contracts.py"

HTTP_MODULE = "service/http.py"
HTTP_BASE_MODULE = "httpbase.py"
SUPERVISE_MODULE = "service/supervise.py"
WORKER_MODULE = "cluster/worker.py"
COORDINATOR_MODULE = "cluster/coordinator.py"
ERROR_TABLE = "_ERROR_STATUS"

#: exception-class modules; when both are present WIRE003 demands every
#: taxonomy row's class actually exists
ERROR_CLASS_MODULES = ("exceptions.py", "service/errors.py")


def _carries_manifest(project: ProjectModel) -> bool:
    """Whether the analysed tree opts into the contract gates.

    The WIRE/STATE families judge code against the live manifest, so
    they run only when the tree being analysed carries the manifest
    module itself — ``src`` always does; fixture packages opt in with a
    ``repro/contracts.py`` marker.  Without this gate every fixture tree
    that mimics a real module path (``repro/core/disc.py`` for HOT001,
    ``repro/service/http.py`` for FLOW001) would be judged as a drifted
    copy of the real thing.
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


@dataclass(frozen=True)
class WireAnchor:
    """One function (or module constant) that speaks a wire schema."""

    module: str
    name: str
    produces: tuple[str, ...] = ()
    consumes: tuple[str, ...] = ()


#: which code speaks which schema, in which direction.  Keys collected
#: inside an anchor must belong to one of its schemas; together the
#: anchors must cover each schema's declared keys.
WIRE_ANCHORS: tuple[WireAnchor, ...] = (
    # handler base shared by the service and the worker
    WireAnchor(HTTP_BASE_MODULE, "NOT_FOUND", produces=("error",)),
    WireAnchor(
        HTTP_BASE_MODULE, "_send_metrics", produces=("metrics",), consumes=("metrics",)
    ),
    # service HTTP surface
    WireAnchor(HTTP_MODULE, "_INDEX", produces=("index",)),
    WireAnchor(HTTP_MODULE, "_error_payload", produces=("error",)),
    WireAnchor(HTTP_MODULE, "_send_error", produces=("error",), consumes=("error",)),
    WireAnchor(HTTP_MODULE, "job_payload", produces=("job",)),
    WireAnchor(HTTP_MODULE, "do_GET", produces=("job",)),
    WireAnchor(
        HTTP_MODULE, "do_DELETE", produces=("database_admin",), consumes=("membership",)
    ),
    WireAnchor(
        HTTP_MODULE, "_post_mine", produces=("mine_submit",), consumes=("mine_submit",)
    ),
    WireAnchor(
        HTTP_MODULE,
        "_post_database",
        produces=("database_admin",),
        consumes=("database_admin",),
    ),
    WireAnchor(HTTP_MODULE, "_worker_url", consumes=("membership",)),
    # service facade
    WireAnchor("service/service.py", "health", produces=("health",), consumes=("membership",)),
    WireAnchor("service/service.py", "heartbeat_worker", produces=("membership",)),
    WireAnchor("service/service.py", "deregister_worker", produces=("membership",)),
    WireAnchor("service/service.py", "workers_detail", produces=("membership",)),
    # membership table
    WireAnchor("cluster/membership.py", "register", produces=("membership",)),
    WireAnchor("cluster/membership.py", "describe", produces=("membership",)),
    WireAnchor("cluster/membership.py", "counts", produces=("membership",)),
    # worker HTTP surface and coordinator link
    WireAnchor(WORKER_MODULE, "health", produces=("health",)),
    WireAnchor(WORKER_MODULE, "_error_doc", produces=("error",)),
    WireAnchor(WORKER_MODULE, "_INDEX", produces=("index",)),
    WireAnchor(
        WORKER_MODULE, "register", produces=("membership",), consumes=("membership",)
    ),
    WireAnchor(WORKER_MODULE, "heartbeat", produces=("membership",)),
    WireAnchor(WORKER_MODULE, "status", produces=("health",)),
    # coordinator client side
    WireAnchor(COORDINATOR_MODULE, "healthy", consumes=("health",)),
    WireAnchor(COORDINATOR_MODULE, "_http_error", consumes=("error",)),
    WireAnchor(COORDINATOR_MODULE, "_absorb_worker_report", consumes=("metrics",)),
    # shard wire format
    WireAnchor("cluster/payload.py", "to_dict", produces=("shard_payload",)),
    WireAnchor("cluster/payload.py", "from_dict", consumes=("shard_payload",)),
    WireAnchor("cluster/payload.py", "encode_shard_result", produces=("shard_result",)),
    WireAnchor("cluster/payload.py", "decode_shard_result", consumes=("shard_result",)),
    # metrics snapshot and renderers
    WireAnchor("obs/metrics.py", "snapshot", produces=("metrics",)),
    WireAnchor("obs/prometheus.py", "render_prometheus", consumes=("metrics",)),
    # journal records
    WireAnchor("service/journal.py", "append", consumes=("journal",)),
    WireAnchor("service/journal.py", "absorb", consumes=("journal",)),
    WireAnchor("service/journal.py", "replay_journal", consumes=("journal",)),
    # soak grader
    WireAnchor("bench/soak_report.py", "classify_outcome", consumes=("soak_report",)),
    WireAnchor(
        "bench/soak_report.py",
        "transition_log",
        produces=("soak_report",),
        consumes=("soak_report",),
    ),
    WireAnchor(
        "bench/soak_report.py",
        "recovery_latencies",
        produces=("soak_report",),
        consumes=("soak_report",),
    ),
    WireAnchor(
        "bench/soak_report.py",
        "build_report",
        produces=("soak_report",),
        consumes=("soak_report",),
    ),
    WireAnchor("bench/soak_report.py", "render_report", consumes=("soak_report",)),
    # bench verdict
    WireAnchor("bench/compare.py", "load_baseline", consumes=("bench_verdict",)),
    WireAnchor("bench/compare.py", "_run_key", consumes=("bench_verdict",)),
    WireAnchor(
        "bench/compare.py",
        "compare_documents",
        produces=("bench_verdict",),
        consumes=("bench_verdict",),
    ),
    WireAnchor("bench/compare.py", "render_verdict", consumes=("bench_verdict",)),
    WireAnchor("bench/baseline.py", "_condense", produces=("bench_verdict",)),
    WireAnchor("bench/baseline.py", "collect_baseline", produces=("bench_verdict",)),
    WireAnchor("cli.py", "_cmd_bench", consumes=("bench_verdict",)),
    # out-of-tree client: the chaos soak
    WireAnchor(
        "scripts/soak.py", "poll_job", produces=("job",), consumes=("job",)
    ),
    WireAnchor("scripts/soak.py", "load_reference", consumes=("job",)),
    WireAnchor(
        "scripts/soak.py",
        "run_job",
        produces=("mine_submit", "soak_report"),
        consumes=("job", "mine_submit", "soak_report"),
    ),
    WireAnchor(
        "scripts/soak.py",
        "main",
        produces=("soak_report",),
        consumes=("soak_report", "membership", "health"),
    ),
)

#: schemas whose producer side lives outside the anchors (the journal's
#: writer threads record-specific ``**fields`` through one chokepoint)
PRODUCER_COVERAGE_EXEMPT = frozenset({"journal"})


def _anchor_roots(
    project: ProjectModel, module: ModuleInfo, name: str
) -> list[ast.AST]:
    """AST roots for an anchor: its function bodies or constant value."""
    functions = functions_named(project, module, name)
    if functions:
        return [fn.node for fn in functions]
    value = module_assign_value(module, name)
    return [value] if value is not None else []


def _collect_keys(
    root: ast.AST, constants: dict[str, str]
) -> tuple[list[tuple[str, ast.AST]], list[tuple[str, ast.AST]]]:
    """(produced, consumed) string keys with their nodes under *root*.

    Only identifier-shaped strings count: wire keys are identifiers, so
    mime types (``"text/plain" in accept``) and other value-position
    strings fall out naturally.
    """
    produced: list[tuple[str, ast.AST]] = []
    consumed: list[tuple[str, ast.AST]] = []
    for node in ast.walk(root):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is None:
                    continue  # ** merge
                text = constant_str(key)
                if text is None and isinstance(key, ast.Name):
                    text = constants.get(key.id)
                if text is not None:
                    produced.append((text, key))
        elif isinstance(node, ast.Subscript):
            text = constant_str(node.slice)
            if text is None:
                continue
            if isinstance(node.ctx, ast.Store):
                produced.append((text, node))
            elif isinstance(node.ctx, ast.Load):
                consumed.append((text, node))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and node.args
            ):
                receiver = dotted_name(func.value)
                if receiver is not None and receiver.endswith("environ"):
                    continue
                text = constant_str(node.args[0])
                if text is not None:
                    consumed.append((text, node))
        elif isinstance(node, ast.Compare):
            if len(node.ops) == 1 and isinstance(
                node.ops[0], (ast.In, ast.NotIn)
            ):
                text = constant_str(node.left)
                if text is not None:
                    consumed.append((text, node))
    produced = [(key, node) for key, node in produced if key.isidentifier()]
    consumed = [(key, node) for key, node in consumed if key.isidentifier()]
    return produced, consumed


@register_project
class WireSchemaRule(ProjectRule):
    """WIRE002: anchored JSON keys must resolve to a declared schema."""

    rule_id = "WIRE002"
    title = "JSON key outside its declared wire schema"
    rationale = (
        "Producer-only keys are payload nobody reads; consumer-only keys "
        "are reads that can only ever see None.  Both are contract drift "
        "between the HTTP handlers and their clients."
    )
    scopes = ()

    def check(self, project: ProjectModel, graph: CallGraph) -> list[Finding]:
        if not _carries_manifest(project):
            return []
        findings: list[Finding] = []
        header_keys = set(contracts.WIRE_HEADER_KEYS)
        # per schema: keys seen on each side, whether every declared
        # anchor was inspectable, and a location to pin coverage findings
        produced_seen: dict[str, set[str]] = {}
        consumed_seen: dict[str, set[str]] = {}
        produced_complete: dict[str, bool] = {}
        consumed_complete: dict[str, bool] = {}
        anchor_at: dict[str, tuple[str, int]] = {}

        for anchor in WIRE_ANCHORS:
            module = project.modules_by_rel.get(anchor.module)
            if module is None:
                for name in anchor.produces:
                    produced_complete[name] = False
                for name in anchor.consumes:
                    consumed_complete[name] = False
                continue
            roots = _anchor_roots(project, module, anchor.name)
            if not roots:
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        1,
                        0,
                        f"wire anchor {anchor.name!r} declared for "
                        f"schema(s) {', '.join(sorted(set(anchor.produces) | set(anchor.consumes)))} "
                        f"no longer exists in {anchor.module}",
                    )
                )
                for name in anchor.produces:
                    produced_complete[name] = False
                for name in anchor.consumes:
                    consumed_complete[name] = False
                continue
            constants = module_str_constants(module)
            schemas = [
                contracts.WIRE_SCHEMAS[name]
                for name in set(anchor.produces) | set(anchor.consumes)
            ]
            legal: set[str] = set()
            for spec in schemas:
                legal |= set(spec.keys) | set(spec.accepted)
            produced: list[tuple[str, ast.AST]] = []
            consumed: list[tuple[str, ast.AST]] = []
            for root in roots:
                got, want = _collect_keys(root, constants)
                produced.extend(got)
                consumed.extend(want)
            seen_here: set[tuple[int, int, str, str]] = set()
            for direction, pairs in (("writes", produced), ("reads", consumed)):
                for key, node in pairs:
                    if key in header_keys or key in legal:
                        continue
                    line = getattr(node, "lineno", 1)
                    col = getattr(node, "col_offset", 0)
                    mark = (line, col, direction, key)
                    if mark in seen_here:
                        continue
                    seen_here.add(mark)
                    findings.append(
                        Finding(
                            self.rule_id,
                            module.path,
                            line,
                            col,
                            f"{anchor.name} {direction} key {key!r} not in "
                            "declared schema(s) "
                            f"{', '.join(sorted(spec.name for spec in schemas))}",
                        )
                    )
            for name in anchor.produces:
                produced_seen.setdefault(name, set()).update(
                    key for key, _ in produced
                )
                produced_complete.setdefault(name, True)
                anchor_at.setdefault(name, (module.path, 1))
            for name in anchor.consumes:
                consumed_seen.setdefault(name, set()).update(
                    key for key, _ in consumed
                )
                consumed_complete.setdefault(name, True)
                anchor_at.setdefault(name, (module.path, 1))

        for name, spec in contracts.WIRE_SCHEMAS.items():
            if produced_complete.get(name) and name not in PRODUCER_COVERAGE_EXEMPT:
                missing = sorted(set(spec.keys) - produced_seen.get(name, set()))
                if missing:
                    path, line = anchor_at[name]
                    findings.append(
                        Finding(
                            self.rule_id,
                            path,
                            line,
                            0,
                            f"schema {name!r} declares key(s) "
                            f"{', '.join(missing)} that no producer anchor "
                            "writes",
                        )
                    )
            if consumed_complete.get(name):
                unread = sorted(set(spec.read) - consumed_seen.get(name, set()))
                if unread:
                    path, line = anchor_at[name]
                    findings.append(
                        Finding(
                            self.rule_id,
                            path,
                            line,
                            0,
                            f"schema {name!r} declares load-bearing key(s) "
                            f"{', '.join(unread)} that no consumer anchor "
                            "reads",
                        )
                    )
        return sorted(findings, key=Finding.sort_index)


@register_project
class ErrorTaxonomyRule(ProjectRule):
    """WIRE003: the error taxonomy has one source of truth."""

    rule_id = "WIRE003"
    title = "error taxonomy drift between code and contracts"
    rationale = (
        "Retries key on status and the retryable flag; a drifted "
        "_ERROR_STATUS row or a locally re-derived retry decision makes "
        "the coordinator retry what the service declared permanent."
    )
    scopes = ("service/", "cluster/")

    def check(self, project: ProjectModel, graph: CallGraph) -> list[Finding]:
        if not _carries_manifest(project):
            return []
        findings: list[Finding] = []
        http = project.modules_by_rel.get(HTTP_MODULE)
        if http is not None:
            findings.extend(self._check_status_table(http))
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

    def _check_status_table(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        value = module_assign_value(module, ERROR_TABLE)
        if not isinstance(value, (ast.Tuple, ast.List)):
            return [
                Finding(
                    self.rule_id,
                    module.path,
                    1,
                    0,
                    f"{HTTP_MODULE} no longer defines the {ERROR_TABLE} "
                    "tuple declared by contracts.ERROR_TAXONOMY",
                )
            ]
        declared = contracts.ERROR_TAXONOMY
        for index, row in enumerate(value.elts):
            line = row.lineno
            col = row.col_offset
            parsed = self._parse_row(row)
            if parsed is None:
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        line,
                        col,
                        f"{ERROR_TABLE} row {index} is not a literal "
                        "(class, status, code) tuple",
                    )
                )
                continue
            if index >= len(declared):
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        line,
                        col,
                        f"{ERROR_TABLE} row ({parsed[0]}, {parsed[1]}, "
                        f"{parsed[2]!r}) has no contracts.ERROR_TAXONOMY "
                        "entry",
                    )
                )
                continue
            rule = declared[index]
            expected = (rule.exception, rule.status, rule.code)
            if parsed != expected:
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        line,
                        col,
                        f"{ERROR_TABLE} row {index} is ({parsed[0]}, "
                        f"{parsed[1]}, {parsed[2]!r}) but "
                        f"contracts.ERROR_TAXONOMY declares ({expected[0]}, "
                        f"{expected[1]}, {expected[2]!r})",
                    )
                )
        if len(value.elts) < len(declared):
            missing = ", ".join(
                rule.exception for rule in declared[len(value.elts):]
            )
            findings.append(
                Finding(
                    self.rule_id,
                    module.path,
                    value.lineno,
                    value.col_offset,
                    f"{ERROR_TABLE} is missing declared row(s) for {missing}",
                )
            )
        return findings

    @staticmethod
    def _parse_row(row: ast.expr) -> tuple[str, int, str] | None:
        if not isinstance(row, ast.Tuple) or len(row.elts) != 3:
            return None
        klass = dotted_name(row.elts[0])
        status = row.elts[1]
        code = constant_str(row.elts[2])
        if (
            klass is None
            or code is None
            or not isinstance(status, ast.Constant)
            or not isinstance(status.value, int)
        ):
            return None
        return (klass.rsplit(".", 1)[-1], status.value, code)

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
    """WIRE004: metric names are declared, produced and consumed."""

    rule_id = "WIRE004"
    title = "metric name outside the declared registry"
    rationale = (
        "bench/compare.py, soak_report.py and the Prometheus renderer "
        "select metrics by literal name; an undeclared or no-longer- "
        "produced name silently drops a gate."
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
        produced_in: dict[str, set[str]] = {}
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
                    findings.extend(
                        self._check_site(module, node, func.attr, produced_in)
                    )
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
        findings.extend(self._check_production(project, produced_in))
        findings.extend(self._check_invariant_list(project))
        return sorted(findings, key=Finding.sort_index)

    def _check_site(
        self,
        module: ModuleInfo,
        node: ast.Call,
        kind: str,
        produced_in: dict[str, set[str]],
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
        produced_in.setdefault(name, set()).add(module.rel_path)
        return findings

    def _check_production(
        self, project: ProjectModel, produced_in: dict[str, set[str]]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for spec in contracts.METRICS.values():
            if not spec.produced_by:
                continue
            present = [
                rel for rel in spec.produced_by if rel in project.modules_by_rel
            ]
            if len(present) != len(spec.produced_by):
                continue  # some producer module outside the analysed set
            if not produced_in.get(spec.name, set()) & set(spec.produced_by):
                module = project.modules_by_rel[spec.produced_by[0]]
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        1,
                        0,
                        f"declared metric {spec.name!r} is no longer "
                        f"produced by {', '.join(spec.produced_by)}",
                    )
                )
        return findings

    def _check_invariant_list(self, project: ProjectModel) -> list[Finding]:
        module = project.modules_by_rel.get("bench/compare.py")
        if module is None:
            return []
        findings: list[Finding] = []
        value = module_assign_value(module, "_INVARIANT")
        if not isinstance(value, (ast.Tuple, ast.List)):
            return [
                Finding(
                    self.rule_id,
                    module.path,
                    1,
                    0,
                    "bench/compare.py no longer defines the _INVARIANT "
                    "metric tuple",
                )
            ]
        listed: set[str] = set()
        for element in value.elts:
            name = constant_str(element)
            if name is None:
                continue
            listed.add(name)
            spec = contracts.METRICS.get(name)
            if spec is None or "bench/compare.py" not in spec.consumers:
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        element.lineno,
                        element.col_offset,
                        f"_INVARIANT gates on metric {name!r} which is not "
                        "declared with bench/compare.py as a consumer",
                    )
                )
        for spec in contracts.METRICS.values():
            if "bench/compare.py" in spec.consumers and spec.name not in listed:
                findings.append(
                    Finding(
                        self.rule_id,
                        module.path,
                        value.lineno,
                        value.col_offset,
                        f"metric {spec.name!r} is declared a "
                        "bench/compare.py invariant but _INVARIANT does not "
                        "gate on it",
                    )
                )
        return findings
