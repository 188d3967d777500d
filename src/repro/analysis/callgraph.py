"""Name-resolution call graph over a :class:`ProjectModel` (system S24).

The graph is built from syntax alone — no imports are executed.  A call
is resolved through a small ladder of strategies:

* bare names: nested ``def``s in the enclosing function chain, then
  module-level functions and classes, then import aliases (followed
  through package re-exports, so ``repro.obs.active`` resolves to
  ``repro.obs.context.active``);
* ``self.m()`` / ``cls.m()``: the enclosing class's method-resolution
  order (a simple left-to-right linearisation, ample for this codebase);
* dotted chains (``module.func()``, ``alias.Class()``): longest-prefix
  resolution through the import table;
* typed receivers (``self._cache.get()``, ``token.checkpoint()``): a
  conservative type inference over parameter annotations, ``AnnAssign``
  statements, constructor assignments in ``__init__`` (including
  ``a if cond else b`` defaults), property and function return
  annotations, and module-level annotated globals.

Anything else — callables passed as values, lambdas, ``getattr`` — is
*documented unresolvable*: the :class:`CallSite` records a reason and the
rules treat the edge as absent.  Constructor calls resolve to the class's
``__init__`` when one is defined in the project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from repro.analysis.visitor import iter_subtree

_MAX_FOLLOW = 12


@dataclass(eq=False)
class CallSite:
    """One call expression, resolved (``callee``) or not (``reason``)."""

    caller: FunctionInfo
    node: ast.Call
    callee: str | None
    reason: str


def dotted_name(expr: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Resolver:
    """Name and type resolution over one :class:`ProjectModel`."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self._mro_cache: dict[str, list[ClassInfo]] = {}
        self._attr_cache: dict[tuple[str, str], ClassInfo | None] = {}
        self._attr_in_progress: set[tuple[str, str]] = set()
        self._local_cache: dict[str, dict[str, ClassInfo]] = {}

    # -- qualified names ---------------------------------------------------

    def resolve_qname(self, dotted: str, _depth: int = 0) -> str:
        """Follow package re-exports until *dotted* names a definition."""
        if _depth > _MAX_FOLLOW:
            return dotted
        project = self.project
        if dotted in project.functions or dotted in project.classes:
            return dotted
        head, _, attr = dotted.rpartition(".")
        if not head:
            return dotted
        module = project.modules.get(head)
        if module is not None:
            target = module.imports.get(attr)
            if target is not None:
                return self.resolve_qname(target, _depth + 1)
            return dotted
        resolved_head = self.resolve_qname(head, _depth + 1)
        if resolved_head != head:
            return self.resolve_qname(f"{resolved_head}.{attr}", _depth + 1)
        return dotted

    def resolve_in_module(self, module: ModuleInfo, name: str) -> str | None:
        """A bare *name* used in *module*, as a project-wide dotted name."""
        if name in module.functions:
            return module.functions[name].qname
        if name in module.classes:
            return module.classes[name].qname
        target = module.imports.get(name)
        if target is not None:
            return self.resolve_qname(target)
        return None

    def resolve_dotted_in_module(self, module: ModuleInfo, dotted: str) -> str:
        """A dotted chain used in *module*, resolved through its imports."""
        head, _, rest = dotted.partition(".")
        base = self.resolve_in_module(module, head)
        if base is None:
            return self.resolve_qname(dotted)
        return self.resolve_qname(f"{base}.{rest}") if rest else base

    def class_named(self, module: ModuleInfo, dotted: str) -> ClassInfo | None:
        return self.project.classes.get(self.resolve_dotted_in_module(module, dotted))

    # -- class hierarchy ---------------------------------------------------

    def base_qnames(self, cls: ClassInfo) -> list[str]:
        """Dotted names of the direct bases (resolved where possible)."""
        names: list[str] = []
        for base in cls.node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                names.append(self.resolve_dotted_in_module(cls.module, dotted))
        return names

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Left-to-right depth-first linearisation (cached)."""
        cached = self._mro_cache.get(cls.qname)
        if cached is not None:
            return cached
        order: list[ClassInfo] = [cls]
        self._mro_cache[cls.qname] = order
        for base in self.base_qnames(cls):
            base_cls = self.project.classes.get(base)
            if base_cls is None:
                continue
            for entry in self.mro(base_cls):
                if entry not in order:
                    order.append(entry)
        return order

    def find_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for entry in self.mro(cls):
            method = entry.methods.get(name)
            if method is not None:
                return method
        return None

    def subclasses_of(self, qname: str) -> list[ClassInfo]:
        """Every project class whose MRO reaches *qname* (itself included)."""
        return [
            cls for cls in self.project.classes.values()
            if any(entry.qname == qname for entry in self.mro(cls))
        ]

    # -- annotations -------------------------------------------------------

    def annotation_class(
        self, module: ModuleInfo, annotation: ast.expr | None
    ) -> ClassInfo | None:
        """The project class an annotation denotes, if any.

        Unions collapse when exactly one arm resolves (``X | None`` →
        ``X``); ``Optional[X]`` unwraps; other subscripts resolve their
        value (``list[X]`` deliberately resolves to nothing — element
        types are not tracked).
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                return None
            return self.annotation_class(module, parsed.body)
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            arms = [
                self.annotation_class(module, arm)
                for arm in (annotation.left, annotation.right)
            ]
            resolved = [arm for arm in arms if arm is not None]
            return resolved[0] if len(resolved) == 1 else None
        if isinstance(annotation, ast.Subscript):
            value_name = dotted_name(annotation.value)
            if value_name in ("Optional", "typing.Optional"):
                return self.annotation_class(module, annotation.slice)
            return None
        dotted = dotted_name(annotation)
        if dotted is None or dotted == "None":
            return None
        return self.class_named(module, dotted)

    # -- attribute types ---------------------------------------------------

    def attribute_type(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        """The class of ``instance.attr``, inferred from declarations."""
        key = (cls.qname, attr)
        if key in self._attr_cache:
            return self._attr_cache[key]
        if key in self._attr_in_progress:
            return None
        self._attr_in_progress.add(key)
        try:
            result = self._infer_attribute_type(cls, attr)
        finally:
            self._attr_in_progress.discard(key)
        self._attr_cache[key] = result
        return result

    def _infer_attribute_type(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        for entry in self.mro(cls):
            module = entry.module
            # class-level annotations (dataclass fields and plain attrs)
            for stmt in entry.node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == attr
                ):
                    found = self.annotation_class(module, stmt.annotation)
                    if found is not None:
                        return found
            # properties with return annotations
            method = entry.methods.get(attr)
            if method is not None and _is_property(method.node):
                found = self.annotation_class(module, method.node.returns)
                if found is not None:
                    return found
            # ``self.attr = ...`` in methods, ``__init__`` first
            methods = sorted(
                entry.methods.values(), key=lambda m: m.name != "__init__"
            )
            for owner_method in methods:
                found = self._attr_from_method(owner_method, attr)
                if found is not None:
                    return found
        return None

    def _attr_from_method(self, method: FunctionInfo, attr: str) -> ClassInfo | None:
        for node in iter_subtree(method.node, skip_functions=True):
            if isinstance(node, ast.AnnAssign) and _targets_self_attr(
                node.target, attr
            ):
                found = self.annotation_class(method.module, node.annotation)
                if found is not None:
                    return found
            elif isinstance(node, ast.Assign) and any(
                _targets_self_attr(target, attr) for target in node.targets
            ):
                found = self.expression_type(node.value, method)
                if found is not None:
                    return found
        return None

    # -- expression types --------------------------------------------------

    def expression_type(
        self, expr: ast.expr, context: FunctionInfo
    ) -> ClassInfo | None:
        """Conservative type of *expr* inside *context*; ``None`` = unknown."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and context.owner is not None:
                return context.owner
            local = self.local_types(context).get(expr.id)
            if local is not None:
                return local
            return self._module_global_type(context.module, expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expression_type(expr.value, context)
            if base is not None:
                return self.attribute_type(base, expr.attr)
            dotted = dotted_name(expr)
            if dotted is not None:
                return self._dotted_global_type(context.module, dotted)
            return None
        if isinstance(expr, ast.Call):
            target, _ = self.resolve_call(expr, context)
            if target is None:
                return None
            cls = self.project.classes.get(target)
            if cls is not None:
                return cls
            fn = self.project.functions.get(target)
            if fn is not None:
                if fn.name == "__init__" and fn.owner is not None:
                    return fn.owner
                return self.annotation_class(fn.module, fn.node.returns)
            return None
        if isinstance(expr, ast.IfExp):
            body = self.expression_type(expr.body, context)
            if body is not None:
                return body
            return self.expression_type(expr.orelse, context)
        if isinstance(expr, ast.Await):
            return self.expression_type(expr.value, context)
        return None

    def local_types(self, fn: FunctionInfo) -> dict[str, ClassInfo]:
        """Types of *fn*'s parameters and simple local assignments."""
        cached = self._local_cache.get(fn.qname)
        if cached is not None:
            return cached
        types: dict[str, ClassInfo] = {}
        self._local_cache[fn.qname] = types
        arguments = fn.node.args
        params = [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]
        for param in params:
            found = self.annotation_class(fn.module, param.annotation)
            if found is not None:
                types[param.arg] = found
        for node in iter_subtree(fn.node, skip_functions=True):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
            ):
                found = self.annotation_class(fn.module, node.annotation)
                if found is not None:
                    types[node.target.id] = found
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id not in types:
                    found = self.expression_type(node.value, fn)
                    if found is not None:
                        types[target.id] = found
        return types

    def _module_global_type(self, module: ModuleInfo, name: str) -> ClassInfo | None:
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == name
            ):
                return self.annotation_class(module, stmt.annotation)
        return None

    def _dotted_global_type(self, module: ModuleInfo, dotted: str) -> ClassInfo | None:
        """Type of ``alias.GLOBAL`` where ``alias`` is an imported module."""
        head, _, attr = dotted.rpartition(".")
        if not head or not attr:
            return None
        target = module.imports.get(head)
        if target is None:
            return None
        other = self.project.modules.get(self.resolve_qname(target))
        if other is None:
            return None
        return self._module_global_type(other, attr)

    # -- call resolution ---------------------------------------------------

    def resolve_call(
        self, call: ast.Call, context: FunctionInfo
    ) -> tuple[str | None, str]:
        """Resolve a call to a project qname; else ``(None, reason)``.

        Constructor calls resolve to ``Class.__init__`` when defined in
        the project, otherwise to the class qname itself (no edges).
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_bare_name(func.id, context)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(func, call, context)
        if isinstance(func, ast.Lambda):
            return None, "lambda callee"
        return None, "dynamic callee expression"

    def _resolve_bare_name(
        self, name: str, context: FunctionInfo
    ) -> tuple[str | None, str]:
        walker: FunctionInfo | None = context
        while walker is not None:
            nested = walker.nested.get(name)
            if nested is not None:
                return nested.qname, "nested function"
            walker = walker.parent
        resolved = self.resolve_in_module(context.module, name)
        if resolved is None:
            return None, f"unknown name {name!r} (builtin or dynamic)"
        return self._as_call_target(resolved)

    def _resolve_attribute_call(
        self, func: ast.Attribute, call: ast.Call, context: FunctionInfo
    ) -> tuple[str | None, str]:
        value = func.value
        # super().m()
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
            and context.owner is not None
        ):
            for entry in self.mro(context.owner)[1:]:
                method = entry.methods.get(func.attr)
                if method is not None:
                    return method.qname, "super() dispatch"
            return None, f"super().{func.attr} not defined in project"
        # dotted chains through modules/classes: alias.func, pkg.mod.Class
        dotted = dotted_name(func)
        if dotted is not None:
            resolved = self.resolve_dotted_in_module(context.module, dotted)
            if (
                resolved in self.project.functions
                or resolved in self.project.classes
            ):
                return self._as_call_target(resolved)
        # typed receivers: self.x.m(), token.checkpoint(), ...
        receiver = self.expression_type(value, context)
        if receiver is not None:
            method = self.find_method(receiver, func.attr)
            if method is not None:
                return method.qname, f"method of {receiver.qname}"
            return None, f"no method {func.attr!r} on {receiver.qname}"
        if dotted is not None:
            return None, f"external or dynamic target {dotted!r}"
        return None, "dynamic receiver"

    def _as_call_target(self, qname: str) -> tuple[str | None, str]:
        if qname in self.project.functions:
            return qname, "direct"
        cls = self.project.classes.get(qname)
        if cls is not None:
            init = self.find_method(cls, "__init__")
            if init is not None:
                return init.qname, f"constructor of {qname}"
            return qname, f"constructor of {qname} (no __init__)"
        return None, f"external target {qname!r}"


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = dotted_name(decorator)
        if name in ("property", "functools.cached_property", "cached_property"):
            return True
    return False


def _targets_self_attr(target: ast.expr, attr: str) -> bool:
    return (
        isinstance(target, ast.Attribute)
        and target.attr == attr
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    )


class CallGraph:
    """Every resolved (and unresolved) call site, indexed both ways."""

    def __init__(self, project: ProjectModel, resolver: Resolver) -> None:
        self.project = project
        self.resolver = resolver
        self.sites: list[CallSite] = []
        self._by_caller: dict[str, list[CallSite]] = {}
        self._by_callee: dict[str, list[CallSite]] = {}

    def add(self, site: CallSite) -> None:
        self.sites.append(site)
        self._by_caller.setdefault(site.caller.qname, []).append(site)
        if site.callee is not None:
            self._by_callee.setdefault(site.callee, []).append(site)

    def calls_from(self, qname: str) -> list[CallSite]:
        return self._by_caller.get(qname, [])

    def calls_to(self, qname: str) -> list[CallSite]:
        return self._by_callee.get(qname, [])

    def reachable(self, seeds: Iterable[str]) -> set[str]:
        """Transitive closure of resolved call edges, seeds included."""
        seen: set[str] = set()
        stack = list(seeds)
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            for site in self.calls_from(qname):
                if site.callee is not None and site.callee not in seen:
                    stack.append(site.callee)
        return seen


def build_call_graph(project: ProjectModel) -> CallGraph:
    """Resolve every call expression in every project function."""
    resolver = Resolver(project)
    graph = CallGraph(project, resolver)
    for fn in project.functions.values():
        for node in iter_subtree(fn.node, skip_functions=True):
            if node is fn.node or not isinstance(node, ast.Call):
                continue
            callee, reason = resolver.resolve_call(node, fn)
            graph.add(CallSite(caller=fn, node=node, callee=callee, reason=reason))
    return graph
