"""The DISC rule catalog (system S24).

Each rule turns one of the repo's algorithmic invariants into a
machine-checked static property:

* **DISC001** — the DISC discovery loop must stay free of support
  counting (Lemmas 2.1/2.2 are the whole point of the paper);
* **DISC002** — sorts over mining data (in core/, mining/ and the
  service layer) must declare their key, because the default tuple
  order on raw sequences is *not* the comparative order of
  Definition 2.2;
* **DISC003** — canonical ``RawSequence``/``FlatSequence`` values are
  immutable after construction;
* **DISC004** — ``core/`` dataclasses declare ``slots=True`` (the hot
  path allocates them by the million);
* **DISC005** — mining code paths never swallow exceptions silently;
* **DISC006** — ``core/`` reports telemetry only through the no-op-able
  :mod:`repro.obs` API, never via ``print`` or ``logging``;
* **DISC007** — failure injection goes only through the
  :mod:`repro.faults` API; ad-hoc ``if TESTING:``-style branches and
  direct fault-flag environment probes are banned;
* **LINT001** — suppression comments must name a registered rule.

Suppress any rule on one line with ``# repro: allow[RULEID]`` (same line
or a standalone comment on the line above).
"""

from __future__ import annotations

import ast

from repro.analysis.visitor import (
    LintContext,
    Rule,
    iter_subtree,
    known_rule_ids,
    register,
)

#: Names of the support-counting primitives (see repro.core.counting and
#: repro.core.sequence.support_count).
_COUNTING_NAMES = frozenset(
    {"CountingArray", "count_frequent_items", "support_count"}
)
#: Method names that accumulate support counts on a counting array.
_COUNTING_METHODS = frozenset({"observe", "observe_all"})

#: Annotations naming the canonical immutable sequence types.
_CANONICAL_TYPES = frozenset({"RawSequence", "FlatSequence", "Transaction"})
#: list-like in-place mutators that must never run on canonical values.
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
)


@register
class NoCountingInDiscLoop(Rule):
    """DISC001: no support counting inside the DISC discovery loop."""

    rule_id = "DISC001"
    title = "no support counting inside the DISC discovery loop"
    rationale = (
        "The paper's headline claim (Lemmas 2.1/2.2) is that frequent "
        "k-sequences are discovered by comparing alpha_1 with alpha_delta, "
        "never by counting the support of non-frequent candidates.  Counting "
        "primitives are sanctioned only outside the loop: in the bi-level "
        "virtual-partition block and in the pre-DISC partitioning steps."
    )
    scopes = ("core/disc", "core/dynamic", "core/discall")

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not ctx.inside(ast.While):
            return
        if isinstance(node, ast.Name) and node.id in _COUNTING_NAMES:
            ctx.report(
                self,
                node,
                f"support-counting primitive {node.id!r} inside the DISC "
                "discovery loop; Lemmas 2.1/2.2 make the loop count-free — "
                "move counting to the sanctioned bi-level block",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _COUNTING_METHODS
        ):
            ctx.report(
                self,
                node,
                f"counting-array method .{node.func.attr}() called inside "
                "the DISC discovery loop; counting belongs to the sanctioned "
                "bi-level block, not the comparison loop",
            )


@register
class SortsMustDeclareKey(Rule):
    """DISC002: sorts in mining code must declare an explicit key."""

    rule_id = "DISC002"
    title = "sorts in core/, mining/, service/ and cluster/ must declare an explicit key"
    rationale = (
        "The comparative order of Definition 2.2 is the lexicographic order "
        "on *flattened* (item, transaction_number) pairs — which differs "
        "from the default tuple order on nested raw sequences.  Every sort "
        "over sequences must therefore key on repro.core.order.sort_key (or "
        "an explicitly chosen key); sorts over scalars document themselves "
        "with a suppression comment.  The service layer handles the same "
        "pattern maps (cache entries, job payloads), so it is in scope too."
    )
    scopes = ("core/", "mining/", "service/", "cluster/")

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        is_sorted = isinstance(func, ast.Name) and func.id == "sorted"
        is_sort = isinstance(func, ast.Attribute) and func.attr == "sort"
        if not (is_sorted or is_sort):
            return
        if any(keyword.arg == "key" for keyword in node.keywords):
            return
        what = "sorted()" if is_sorted else ".sort()"
        ctx.report(
            self,
            node,
            f"default-ordered {what} in mining code: raw-sequence tuple "
            "order is not the comparative order — pass "
            "key=repro.core.order.sort_key (or an explicit key), or mark a "
            "scalar sort with '# repro: allow[DISC002]'",
        )


def _annotation_names(annotation: ast.expr | None) -> frozenset[str]:
    """Type names reachable in an annotation expression.

    Understands plain names, dotted names, string annotations and PEP 604
    unions (``RawSequence | None``); deliberately does *not* descend into
    subscripts, so ``list[RawSequence]`` is a list, not a canonical value.
    """
    if annotation is None:
        return frozenset()
    if isinstance(annotation, ast.Name):
        return frozenset({annotation.id})
    if isinstance(annotation, ast.Attribute):
        return frozenset({annotation.attr})
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return frozenset({part.strip() for part in annotation.value.split("|")})
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_names(annotation.left) | _annotation_names(
            annotation.right
        )
    return frozenset()


@register
class NoCanonicalMutation(Rule):
    """DISC003: canonical sequence values are immutable after construction."""

    rule_id = "DISC003"
    title = "no mutation of canonical RawSequence/FlatSequence values"
    rationale = (
        "Every database member and pattern is a canonical tuple-of-tuples; "
        "the k-sorted database, the partition queues and the result maps "
        "all share these values by reference.  Mutating one (or treating "
        "it as a list) would corrupt the comparative order everywhere at "
        "once, so names annotated with a canonical type must never be "
        "subscript-assigned or mutated in place."
    )

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Module):
            self._scan(node, self._module_level_names(node), ctx)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan(node, self._function_names(node), ctx)

    @staticmethod
    def _is_canonical(annotation: ast.expr | None) -> bool:
        return bool(_annotation_names(annotation) & _CANONICAL_TYPES)

    def _function_names(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        """Names bound to a canonical type inside one function."""
        args = func.args
        every_arg = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
        names = {
            arg.arg for arg in every_arg if self._is_canonical(arg.annotation)
        }
        for inner in iter_subtree(func, skip_functions=True):
            if (
                isinstance(inner, ast.AnnAssign)
                and isinstance(inner.target, ast.Name)
                and self._is_canonical(inner.annotation)
            ):
                names.add(inner.target.id)
        return names

    def _module_level_names(self, module: ast.Module) -> set[str]:
        """Module-level names annotated with a canonical type."""
        return {
            stmt.target.id
            for stmt in module.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and self._is_canonical(stmt.annotation)
        }

    def _scan(self, root: ast.AST, names: set[str], ctx: LintContext) -> None:
        """Report mutations of *names* directly inside *root*'s scope."""
        if not names:
            return
        for node in iter_subtree(root, skip_functions=True):
            if node is not root and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # their own visit covers them
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
            ):
                ctx.report(
                    self,
                    node,
                    f"in-place .{node.func.attr}() on canonical value "
                    f"{node.func.value.id!r}; canonical sequences are "
                    "immutable tuples — build a new value instead",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    targets = node.targets
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        ctx.report(
                            self,
                            target,
                            f"item assignment into canonical value "
                            f"{target.value.id!r}; canonical sequences are "
                            "immutable after construction",
                        )


def _dataclass_decorator(decorator: ast.expr) -> ast.Call | ast.expr | None:
    """The decorator node when it is (a call of) ``dataclass``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Name) and target.id == "dataclass":
        return decorator
    if isinstance(target, ast.Attribute) and target.attr == "dataclass":
        return decorator
    return None


@register
class CoreDataclassesDeclareSlots(Rule):
    """DISC004: dataclasses in core/ must declare slots=True."""

    rule_id = "DISC004"
    title = "core/ dataclasses must declare slots=True"
    rationale = (
        "The DISC inner loop allocates core dataclasses (sorted entries, "
        "result records) per customer sequence per round; __dict__-backed "
        "instances cost ~3x the memory and measurably slow attribute "
        "access.  Every dataclass in core/ therefore declares slots=True."
    )
    scopes = ("core/",)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.ClassDef):
            return
        for decorator in node.decorator_list:
            found = _dataclass_decorator(decorator)
            if found is None:
                continue
            slots_on = isinstance(found, ast.Call) and any(
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in found.keywords
            )
            if not slots_on:
                ctx.report(
                    self,
                    node,
                    f"dataclass {node.name!r} in core/ must declare "
                    "slots=True (hot-path allocation)",
                )


@register
class NoSilentExceptions(Rule):
    """DISC005: no bare except / silent pass in mining code paths."""

    rule_id = "DISC005"
    title = "no bare except or silent pass in mining code paths"
    rationale = (
        "A swallowed exception in the mining path turns a correctness bug "
        "into silently missing patterns.  Handlers must name the exception "
        "type and do something observable (re-raise, record, or return a "
        "sentinel).  In the service layer a swallowed exception is worse "
        "still: a job that never reaches a terminal state hangs its client "
        "forever, so service/ is in scope too."
    )
    scopes = ("core/", "mining/", "service/", "cluster/")

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            ctx.report(
                self,
                node,
                "bare 'except:' in mining code; name the exception type",
            )
        elif all(isinstance(stmt, ast.Pass) for stmt in node.body):
            ctx.report(
                self,
                node,
                "exception handler swallows silently (body is only 'pass'); "
                "re-raise, record, or return a sentinel",
            )


@register
class ObservabilityThroughObsApi(Rule):
    """DISC006: core/ telemetry goes through repro.obs, never stdout/logging."""

    rule_id = "DISC006"
    title = "core/ instrumentation must use the no-op-able repro.obs API"
    rationale = (
        "The instrumentation contract (docs/DEVELOPMENT.md, Observability) "
        "is that core/ stays allocation-free when nobody observes: metrics "
        "and spans go through repro.obs, whose disabled path is shared "
        "no-op singletons.  print() and the logging module break that "
        "contract — they format and emit unconditionally, cost time on the "
        "hot path, and cannot be captured into a RunReport."
    )
    scopes = ("core/",)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            ctx.report(
                self,
                node,
                "print() in core/; report through the active observation "
                "(repro.obs.active().metrics / .tracer) so disabled runs "
                "stay silent and free",
            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "logging" or alias.name.startswith("logging."):
                    ctx.report(
                        self,
                        node,
                        "logging imported in core/; instrument through "
                        "repro.obs instead (its no-op default keeps the "
                        "uninstrumented hot path allocation-free)",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "logging" or module.startswith("logging."):
                ctx.report(
                    self,
                    node,
                    "logging imported in core/; instrument through "
                    "repro.obs instead (its no-op default keeps the "
                    "uninstrumented hot path allocation-free)",
                )


#: Name fragments (``_``-separated tokens) that mark a fault/test flag.
_FAULT_FLAG_TOKENS = frozenset({"TESTING", "FAULT", "FAULTS", "CHAOS"})


def _is_fault_flag_name(name: str) -> bool:
    """True for ALL-UPPERCASE names like TESTING or ENABLE_FAULTS.

    Token-wise matching avoids false positives on names that merely
    contain a fragment (``DEFAULT`` is not ``FAULT``).
    """
    if not name.isupper():
        return False
    return bool(set(name.split("_")) & _FAULT_FLAG_TOKENS)


def _env_lookup_key(node: ast.AST) -> ast.expr | None:
    """The key expression of an ``os.environ`` / ``os.getenv`` lookup."""
    if isinstance(node, ast.Call):
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        # os.getenv(KEY) / os.environ.get(KEY)
        is_getenv = func.attr == "getenv"
        is_environ_get = (
            func.attr == "get"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "environ"
        )
        if (is_getenv or is_environ_get) and node.args:
            return node.args[0]
        return None
    if isinstance(node, ast.Subscript):
        # os.environ[KEY]
        if isinstance(node.value, ast.Attribute) and node.value.attr == "environ":
            return node.slice
    return None


@register
class FaultsOnlyThroughFaultsApi(Rule):
    """DISC007: failure injection only through the repro.faults API."""

    rule_id = "DISC007"
    title = "failure injection must go through the repro.faults API"
    rationale = (
        "Crash-recovery guarantees are only as good as the faults they "
        "were tested against.  repro.faults makes injection deterministic "
        "(seeded, replayable, inert when disarmed) and auditable (every "
        "site is a named fault_point).  An ad-hoc 'if TESTING:' branch or "
        "a direct fault-flag environment probe is neither: it ships "
        "test-only control flow nobody can enumerate, arm deterministically "
        "or prove disabled in production."
    )

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if ctx.rel_path == "faults.py":
            return  # the sanctioned implementation itself
        if isinstance(node, ast.If):
            for inner in iter_subtree(node.test):
                if isinstance(inner, ast.Name) and _is_fault_flag_name(inner.id):
                    ctx.report(
                        self,
                        inner,
                        f"ad-hoc fault/test flag {inner.id!r} guards a code "
                        "branch; inject failures through a named "
                        "repro.faults.fault_point(...) site instead",
                    )
        key = _env_lookup_key(node)
        if (
            key is not None
            and isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and _is_fault_flag_name(key.value.upper())
        ):
            ctx.report(
                self,
                node,
                f"direct environment probe for fault flag {key.value!r}; "
                "only repro.faults reads the fault-injection environment "
                "(arm a FaultPlan and use fault_point sites)",
            )


@register
class SuppressionsNameKnownRules(Rule):
    """LINT001: suppression comments must name registered rules."""

    rule_id = "LINT001"
    title = "suppression comments must name a registered rule"
    rationale = (
        "A '# repro: allow[...]' comment naming an unknown rule id "
        "suppresses nothing and rots silently; the id is probably a typo."
    )

    def finish_module(self, ctx: LintContext) -> None:
        known = known_rule_ids()
        for line, ids in sorted(ctx.allow_comments.items()):
            for rule_id in sorted(ids):
                if rule_id not in known:
                    ctx.report_at(
                        self,
                        line,
                        0,
                        f"suppression names unknown rule id {rule_id!r}",
                    )
