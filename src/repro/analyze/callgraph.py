"""AST call graph and hot-path reachability.

The hot-path rules need to know which functions can execute once per trace
record.  Roots come from two places (:class:`~repro.analyze.config.AnalyzerConfig`):

* ``hotpath_roots`` — dotted qualname suffixes of fully-hot functions;
* ``# repro: hotpath`` marker comments in source — on a ``def`` line the
  whole function is a root, on a ``while``/``for`` statement only that loop
  body is (which is how the engine's record loop is hot while its setup
  prologue is not).

Call resolution is type-aware where the code gives types away and
conservative everywhere else:

* ``self.attr.m(...)`` resolves through attribute types inferred from
  ``__init__`` (``self.hierarchy = CacheHierarchy(...)``, constructor-typed
  parameters, lists of constructed elements), then an MRO walk over analyzed
  base classes — *plus* every analyzed subclass override, so
  ``self.scheme.access(...)`` on a ``DramCacheScheme``-typed attribute links
  to every scheme implementation;
* attribute aliases (``self._translate = self.page_table.translate``) and
  local aliases (``process_cols = system.process_record_cols``) are followed;
* a ``for`` target over a typed list (``for buffer in self.tag_buffers``)
  takes the list's element type;
* an *untyped* receiver falls back to linking every analyzed method of that
  name — except ubiquitous container-protocol names (``get``, ``keys``,
  ``add``, ...), which would otherwise drag unrelated classes in through
  every ``dict.get`` call;
* an attribute *read* (``self.window.rate``) whose typed receiver resolves
  to a ``@property`` links to the getter, which runs on every read.

Over-approximating reachability is the right failure mode for an invariant
prover — a spurious edge surfaces as a reviewable finding, a missed edge
would hide a real allocation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analyze.core import AnalysisContext, HOTPATH_MARKER, Module

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOP_NODES = (ast.While, ast.For)

#: Container-protocol method names never resolved through the global
#: name index: calling them on an untyped receiver is almost always a
#: dict/set/list operation, not a hot-path edge.
_GENERIC_METHODS = frozenset(
    {
        "get", "keys", "values", "items", "pop", "popitem", "setdefault",
        "update", "clear", "copy", "add", "discard", "remove", "append",
        "extend", "insert", "sort", "reverse", "count", "index",
        "popleft", "appendleft", "join", "split", "strip", "format",
        "startswith", "endswith", "encode", "decode", "to_dict", "from_dict",
    }
)


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    module: Module
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    class_name: str = ""

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]


@dataclass
class ListOf:
    """Inferred container-of-instances type (``self.tlbs = [Tlb(...) ...]``)."""

    element: "ClassInfo"


InferredType = Union["ClassInfo", ListOf]


@dataclass
class ClassInfo:
    """One analyzed class: methods, attribute inventory, alias bindings."""

    module: Module
    node: ast.ClassDef
    qualname: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)
    #: Attributes assigned anywhere in ``__init__`` (``self.x = ...``).
    init_attrs: Set[str] = field(default_factory=set)
    #: Names bound in the class body (including ``__slots__`` entries).
    class_attrs: Set[str] = field(default_factory=set)
    slots: Optional[Set[str]] = None  #: None when no ``__slots__`` declared
    #: ``self.<alias> = <expr>`` bindings anywhere in the class.
    alias_exprs: Dict[str, List[ast.AST]] = field(default_factory=dict)
    #: Attribute types inferred from ``__init__`` assignments.
    attr_types: Dict[str, InferredType] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


class CodeIndex:
    """Cross-module symbol index the resolver works against."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.module_functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self._subclasses: Optional[Dict[str, List[ClassInfo]]] = None

    def class_for_qualname_suffix(self, suffix: str) -> Optional[ClassInfo]:
        for qualname, info in self.classes.items():
            if qualname == suffix or qualname.endswith("." + suffix):
                return info
        return None

    def declared_attrs(self, info: ClassInfo, depth: int = 0) -> Set[str]:
        """Attributes ``info`` or an analyzed base declares (``__init__``, class body, ``__slots__``)."""
        declared = info.init_attrs | info.class_attrs | (info.slots or set())
        if depth < 4:
            for base_name in info.base_names:
                for base in self.classes_by_name.get(base_name, []):
                    declared |= self.declared_attrs(base, depth + 1)
        return declared

    def subclasses_of(self, info: ClassInfo) -> List[ClassInfo]:
        """Analyzed classes whose (transitive) syntactic bases include ``info``."""
        if self._subclasses is None:
            direct: Dict[str, List[ClassInfo]] = {}
            for cls in self.classes.values():
                for base_name in cls.base_names:
                    for base in self.classes_by_name.get(base_name, []):
                        direct.setdefault(base.qualname, []).append(cls)
            self._subclasses = direct
        result: List[ClassInfo] = []
        frontier = [info]
        seen = {info.qualname}
        while frontier:
            current = frontier.pop()
            for child in self._subclasses.get(current.qualname, []):
                if child.qualname not in seen:
                    seen.add(child.qualname)
                    result.append(child)
                    frontier.append(child)
        return result


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


_CONTAINER_ANNOTATIONS = frozenset({"List", "Sequence", "Tuple", "list", "tuple"})


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name of a plain / Optional[...] / string annotation, if any."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").split(".")[-1].split("[")[0]
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Optional[X] / "List[X]" etc.
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_name(inner)
    return None


def _annotation_type(
    index: "CodeIndex", node: Optional[ast.AST]
) -> Optional[InferredType]:
    """InferredType for an annotation: ``List[X]`` -> ListOf(X), else X."""
    name = _annotation_name(node)
    if name is None:
        return None
    candidates = index.classes_by_name.get(name, [])
    if len(candidates) != 1:
        return None
    container = (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in _CONTAINER_ANNOTATIONS
    )
    return ListOf(candidates[0]) if container else candidates[0]


def build_index(context: AnalysisContext) -> CodeIndex:
    cached = context.cache.get("code_index")
    if isinstance(cached, CodeIndex):
        return cached
    index = CodeIndex()
    for module in context.modules:
        for node in module.tree.body:
            if isinstance(node, _FUNCTION_NODES):
                info = FunctionInfo(module, node, f"{module.name}.{node.name}")
                index.functions[info.qualname] = info
                index.module_functions[(module.name, node.name)] = info
            elif isinstance(node, ast.ClassDef):
                _index_class(index, module, node)
    for info in index.classes.values():
        _infer_attr_types(index, info)
    context.cache["code_index"] = index
    return index


def _index_class(index: CodeIndex, module: Module, node: ast.ClassDef) -> None:
    info = ClassInfo(module, node, f"{module.name}.{node.name}")
    info.base_names = [
        base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        for base in node.bases
    ]
    for stmt in node.body:
        if isinstance(stmt, _FUNCTION_NODES):
            method = FunctionInfo(module, stmt, f"{info.qualname}.{stmt.name}", node.name)
            info.methods[stmt.name] = method
            index.functions[method.qualname] = method
            index.methods_by_name.setdefault(stmt.name, []).append(method)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.class_attrs.add(target.id)
                    if target.id == "__slots__":
                        info.slots = {
                            element.value
                            for element in ast.walk(stmt.value)
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        }
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.class_attrs.add(stmt.target.id)
    for method in info.methods.values():
        for stmt in ast.walk(method.node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [stmt.target], getattr(stmt, "value", None)
            for target in targets:
                if not _is_self_attr(target):
                    continue
                attr = target.attr  # type: ignore[union-attr]
                if method.name == "__init__":
                    info.init_attrs.add(attr)
                # Only method-reference shapes become aliases; arbitrary
                # value expressions (constructor calls etc.) are not callables
                # and walking their internals would fabricate edges.
                if isinstance(stmt, ast.Assign) and isinstance(
                    value, (ast.Attribute, ast.IfExp)
                ):
                    info.alias_exprs.setdefault(attr, []).append(value)
    index.classes[info.qualname] = info
    index.classes_by_name.setdefault(node.name, []).append(info)


def _infer_attr_types(index: CodeIndex, info: ClassInfo) -> None:
    """Infer ``self.attr`` types from ``__init__`` constructor assignments."""
    init = info.methods.get("__init__")
    if init is None:
        return
    param_types: Dict[str, ClassInfo] = {}
    args = init.node.args  # type: ignore[attr-defined]
    for arg in list(args.args) + list(args.kwonlyargs):
        name = _annotation_name(arg.annotation)
        if name:
            candidates = index.classes_by_name.get(name, [])
            if len(candidates) == 1:
                param_types[arg.arg] = candidates[0]
    for method in info.methods.values():
        for stmt in ast.walk(method.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, annotation, value = stmt.targets[0], None, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, annotation, value = stmt.target, stmt.annotation, stmt.value
            else:
                continue
            if not _is_self_attr(target) or target.attr in info.attr_types:
                continue
            inferred = _annotation_type(index, annotation)
            if inferred is None and value is not None and method.name == "__init__":
                inferred = _infer_value_type(index, info, value, param_types)
            if inferred is not None:
                info.attr_types[target.attr] = inferred


def _infer_value_type(
    index: CodeIndex,
    info: ClassInfo,
    value: ast.AST,
    param_types: Dict[str, ClassInfo],
) -> Optional[InferredType]:
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        constructed = _class_by_local_name(index, info.module, value.func.id)
        if constructed is not None:
            return constructed
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, (ast.List, ast.ListComp)):
        elements = value.elts if isinstance(value, ast.List) else [value.elt]
        for element in elements:
            if isinstance(element, ast.Call) and isinstance(element.func, ast.Name):
                constructed = _class_by_local_name(index, info.module, element.func.id)
                if constructed is not None:
                    return ListOf(constructed)
    return None


def _class_by_local_name(
    index: CodeIndex, module: Module, name: str
) -> Optional[ClassInfo]:
    local = index.classes.get(f"{module.name}.{name}")
    if local is not None:
        return local
    imported = module.imports.get(name)
    if imported is not None:
        return index.classes.get(imported)
    return None


# --------------------------------------------------------------------------- call resolution


def _is_property(method: FunctionInfo) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "property"
        for decorator in method.node.decorator_list  # type: ignore[attr-defined]
    )


def _matches_cold(patterns: Sequence[str], target: FunctionInfo) -> bool:
    for pattern in patterns:
        if "." in pattern:
            class_name, _, method = pattern.partition(".")
            if target.class_name == class_name and method in ("*", target.name):
                return True
        elif target.name == pattern:
            return True
    return False


class CallResolver:
    """Resolves call sites in one function to analyzed callees."""

    def __init__(self, index: CodeIndex, cold_calls: Sequence[str]) -> None:
        self.index = index
        self.cold_calls = cold_calls
        self._local_env_cache: Dict[int, Dict[str, InferredType]] = {}

    # ------------------------------------------------------------- type env

    def _local_env(self, func: FunctionInfo) -> Dict[str, InferredType]:
        cached = self._local_env_cache.get(id(func.node))
        if cached is not None:
            return cached
        env: Dict[str, InferredType] = {}
        owner = self._owning_class(func)
        args = func.node.args  # type: ignore[attr-defined]
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.arg == "self" and owner is not None:
                env["self"] = owner
                continue
            name = _annotation_name(arg.annotation)
            if name:
                candidates = self.index.classes_by_name.get(name, [])
                if len(candidates) == 1:
                    env[arg.arg] = candidates[0]
        for stmt in ast.walk(func.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and target.id not in env:
                    inferred = self._infer_expr(stmt.value, env, func)
                    if inferred is not None:
                        env[target.id] = inferred
            elif isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
                # ``for buffer in self.tag_buffers`` types ``buffer``.
                iterable = self._infer_expr(stmt.iter, env, func)
                if isinstance(iterable, ListOf) and stmt.target.id not in env:
                    env[stmt.target.id] = iterable.element
        self._local_env_cache[id(func.node)] = env
        return env

    def _infer_expr(
        self,
        expr: ast.AST,
        env: Dict[str, InferredType],
        func: FunctionInfo,
    ) -> Optional[InferredType]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Subscript):
            base = self._infer_expr(expr.value, env, func)
            if isinstance(base, ListOf):
                return base.element
            return None
        if isinstance(expr, ast.Attribute):
            base = self._infer_expr(expr.value, env, func)
            if isinstance(base, ClassInfo):
                return self._attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return _class_by_local_name(self.index, func.module, expr.func.id)
        return None

    def _attr_type(self, owner: ClassInfo, attr: str, depth: int = 0) -> Optional[InferredType]:
        if attr in owner.attr_types:
            return owner.attr_types[attr]
        if depth >= 4:
            return None
        for base_name in owner.base_names:
            for base in self.index.classes_by_name.get(base_name, []):
                found = self._attr_type(base, attr, depth + 1)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------ resolution

    def resolve(
        self, func: FunctionInfo, call: ast.Call
    ) -> Tuple[List[FunctionInfo], List[ClassInfo]]:
        """(callee functions, constructed classes) for one call site."""
        targets, constructed = self._resolve_callable(func, call.func)
        hot_targets = [t for t in targets if not _matches_cold(self.cold_calls, t)]
        return hot_targets, constructed

    def type_of(self, func: FunctionInfo, expr: ast.AST) -> Optional[InferredType]:
        """Inferred type of ``expr`` where it appears in ``func``, if any."""
        return self._infer_expr(expr, self._local_env(func), func)

    def resolve_property(self, func: FunctionInfo, node: ast.Attribute) -> List[FunctionInfo]:
        """The ``@property`` getter an attribute read runs, on a typed receiver."""
        receiver = self.type_of(func, node.value)
        if not isinstance(receiver, ClassInfo):
            return []
        getter = self._lookup_method(receiver, node.attr)
        if getter is None or not _is_property(getter) or _matches_cold(self.cold_calls, getter):
            return []
        return [getter]

    def _resolve_callable(
        self, func: FunctionInfo, callee: ast.AST
    ) -> Tuple[List[FunctionInfo], List[ClassInfo]]:
        targets: List[FunctionInfo] = []
        constructed: List[ClassInfo] = []
        if isinstance(callee, ast.Name):
            self._resolve_name(func, callee.id, targets, constructed)
        elif isinstance(callee, ast.Attribute):
            self._resolve_attribute(func, callee, targets, constructed)
        return targets, constructed

    def _resolve_name(
        self,
        func: FunctionInfo,
        name: str,
        targets: List[FunctionInfo],
        constructed: List[ClassInfo],
    ) -> None:
        module = func.module
        alias = self._local_alias_expr(func, name)
        if alias is not None:
            alias_targets, alias_constructed = self._resolve_callable(func, alias)
            targets.extend(alias_targets)
            constructed.extend(alias_constructed)
            if alias_targets or alias_constructed:
                return
        local = self.index.module_functions.get((module.name, name))
        if local is not None:
            targets.append(local)
            return
        cls = _class_by_local_name(self.index, module, name)
        if cls is not None:
            constructed.append(cls)
            return
        imported = module.imports.get(name)
        if imported is not None:
            info = self.index.functions.get(imported)
            if info is not None:
                targets.append(info)

    def _local_alias_expr(self, func: FunctionInfo, name: str) -> Optional[ast.AST]:
        for stmt in ast.walk(func.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and target.id == name
                    and isinstance(stmt.value, (ast.Attribute, ast.IfExp))
                ):
                    return stmt.value
        return None

    def _resolve_attribute(
        self,
        func: FunctionInfo,
        callee: ast.Attribute,
        targets: List[FunctionInfo],
        constructed: List[ClassInfo],
    ) -> None:
        if isinstance(callee, ast.IfExp):  # pragma: no cover - defensive
            return
        attr = callee.attr
        env = self._local_env(func)
        owner = self._owning_class(func)

        # ``self.alias(...)`` where the alias was bound to a method elsewhere
        # in the class (``self._translate = self.page_table.translate``).
        # Alias expressions are resolved in the environment of the method
        # that bound them (``__init__`` for hoisted bound methods), where
        # parameter annotations type the receiver.
        if _is_self_attr(callee) and owner is not None:
            resolved_via_alias = False
            for expr in self._alias_exprs(owner, attr):
                branches = (
                    [expr.body, expr.orelse] if isinstance(expr, ast.IfExp) else [expr]
                )
                for branch in branches:
                    if not isinstance(branch, ast.Attribute) or branch is callee:
                        continue
                    defining = owner.methods.get("__init__", func)
                    sub_targets: List[FunctionInfo] = []
                    self._resolve_attribute(defining, branch, sub_targets, constructed)
                    if sub_targets:
                        targets.extend(sub_targets)
                        resolved_via_alias = True
            if resolved_via_alias:
                return

        receiver_type = self._infer_expr(callee.value, env, func)
        if isinstance(receiver_type, ListOf):
            receiver_type = None
        if isinstance(receiver_type, ClassInfo):
            method = self._lookup_method(receiver_type, attr)
            if method is not None:
                targets.append(method)
                # Polymorphism: every analyzed subclass override is a
                # possible callee (``self.scheme.access`` -> each scheme).
                for subclass in self.index.subclasses_of(receiver_type):
                    override = subclass.methods.get(attr)
                    if override is not None:
                        targets.append(override)
                return
            return  # typed receiver without such a method: external/protocol

        if isinstance(callee.value, ast.Name):
            # Module-qualified calls (heapq.heappush, math.log): resolve via
            # imports; external modules contribute no edges.
            imported = func.module.imports.get(callee.value.id)
            if imported is not None:
                qualified = f"{imported}.{attr}"
                info = self.index.functions.get(qualified)
                cls = self.index.classes.get(qualified)
                if info is not None:
                    targets.append(info)
                elif cls is not None:
                    constructed.append(cls)
                return

        if attr in _GENERIC_METHODS:
            return  # untyped container-protocol call: not an edge
        targets.extend(self.index.methods_by_name.get(attr, []))

    def _alias_exprs(self, owner: ClassInfo, attr: str) -> List[ast.AST]:
        exprs = list(owner.alias_exprs.get(attr, []))
        for base_name in owner.base_names:
            for base in self.index.classes_by_name.get(base_name, []):
                exprs.extend(base.alias_exprs.get(attr, []))
        return exprs

    def _owning_class(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if not func.class_name:
            return None
        return self.index.classes.get(f"{func.module.name}.{func.class_name}")

    def _lookup_method(
        self, owner: ClassInfo, name: str, depth: int = 0
    ) -> Optional[FunctionInfo]:
        if name in owner.methods:
            return owner.methods[name]
        if depth >= 4:
            return None
        for base_name in owner.base_names:
            for base in self.index.classes_by_name.get(base_name, []):
                found = self._lookup_method(base, name, depth + 1)
                if found is not None:
                    return found
        return None


# --------------------------------------------------------------------------- hot reachability


def _annotation_node_ids(func_or_region: ast.AST) -> Set[int]:
    """ids of annotation subtree roots (never executed per record)."""
    ids: Set[int] = set()
    for node in ast.walk(func_or_region):
        if isinstance(node, _FUNCTION_NODES):
            args = node.args
            for arg in list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs):
                if arg.annotation is not None:
                    ids.add(id(arg.annotation))
            if args.vararg is not None and args.vararg.annotation is not None:
                ids.add(id(args.vararg.annotation))
            if args.kwarg is not None and args.kwarg.annotation is not None:
                ids.add(id(args.kwarg.annotation))
            if node.returns is not None:
                ids.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            ids.add(id(node.annotation))
    return ids


@dataclass
class HotSpan:
    """A region of one function that can execute once per trace record.

    ``region`` is the whole function node for fully-hot functions, or a loop
    node for marker-scoped roots (only the record loop of ``Engine.run`` is
    hot, not its setup prologue).
    """

    function: FunctionInfo
    region: ast.AST
    chain: str  #: "callee <- caller <- ... <- root" provenance for messages

    def walk_region(self) -> Iterator[ast.AST]:
        """Region nodes, excluding annotations and nested function bodies.

        A nested ``def``/``lambda`` *creation* is itself a hot-path finding;
        its body only runs if called, which the call graph tracks separately.
        Annotation subtrees are type syntax, not per-record execution.
        """
        skip = _annotation_node_ids(self.region)
        stack: List[ast.AST] = [self.region]
        first = True
        while stack:
            node = stack.pop()
            if id(node) in skip:
                continue
            if not first and isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
                yield node  # report the creation, do not descend
                continue
            first = False
            yield node
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class HotGraph:
    spans: List[HotSpan]
    #: Constructor calls found in hot regions: (span, call node, class).
    constructions: List[Tuple[HotSpan, ast.Call, ClassInfo]]
    #: Classes owning at least one hot method (for attribute/slots checks).
    hot_classes: Set[str]


def _marker_roots(module: Module) -> List[Tuple[ast.AST, ast.AST]]:
    """(function node, region node) pairs for each hotpath marker in source."""
    marker_lines = [
        lineno
        for lineno, line in enumerate(module.lines, start=1)
        if HOTPATH_MARKER in line
    ]
    roots: List[Tuple[ast.AST, ast.AST]] = []
    for lineno in marker_lines:
        best: Optional[ast.AST] = None
        for node in ast.walk(module.tree):
            if not isinstance(node, _FUNCTION_NODES + _LOOP_NODES):
                continue
            # Marker trails the statement line or sits on its own line above.
            if getattr(node, "lineno", -1) in (lineno, lineno + 1):
                best = node
                break
        if best is None:
            continue
        if isinstance(best, _FUNCTION_NODES):
            roots.append((best, best))
        else:
            owner = next(
                (a for a in module.ancestors(best) if isinstance(a, _FUNCTION_NODES)),
                None,
            )
            if owner is not None:
                roots.append((owner, best))
    return roots


def _inside_raise(module: Module, node: ast.AST) -> bool:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.Raise):
            return True
        if isinstance(ancestor, _FUNCTION_NODES):
            break
    return False


def hot_graph(context: AnalysisContext) -> HotGraph:
    """Compute (and memoise) hot-path reachability for this context."""
    cached = context.cache.get("hot_graph")
    if isinstance(cached, HotGraph):
        return cached
    index = build_index(context)
    resolver = CallResolver(index, context.config.hotpath_cold_calls)

    queue: List[HotSpan] = []
    for suffix in context.config.hotpath_roots:
        for qualname, info in index.functions.items():
            if qualname == suffix or qualname.endswith("." + suffix):
                queue.append(HotSpan(info, info.node, qualname))
    for module in context.modules:
        for func_node, region in _marker_roots(module):
            info = next(
                (f for f in index.functions.values() if f.node is func_node), None
            )
            if info is not None:
                queue.append(HotSpan(info, region, info.qualname))

    graph = HotGraph(spans=[], constructions=[], hot_classes=set())
    seen: Set[Tuple[str, int]] = set()
    while queue:
        span = queue.pop()
        key = (span.function.qualname, getattr(span.region, "lineno", 0))
        if key in seen:
            continue
        seen.add(key)
        graph.spans.append(span)
        if span.function.class_name:
            owner = f"{span.function.module.name}.{span.function.class_name}"
            graph.hot_classes.add(owner)
        for node in span.walk_region():
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                for getter in resolver.resolve_property(span.function, node):
                    queue.append(
                        HotSpan(getter, getter.node, f"{getter.qualname} <- {span.chain}")
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            targets, constructed = resolver.resolve(span.function, node)
            for target in targets:
                queue.append(
                    HotSpan(target, target.node, f"{target.qualname} <- {span.chain}")
                )
            for cls in constructed:
                if _inside_raise(span.function.module, node):
                    continue  # error-path constructions (exceptions) are exempt
                graph.constructions.append((span, node, cls))
                init = cls.methods.get("__init__")
                if init is not None:
                    queue.append(
                        HotSpan(init, init.node, f"{init.qualname} <- {span.chain}")
                    )
    context.cache["hot_graph"] = graph
    return graph
