"""Hot-path purity rules.

The per-record pipeline (PR 2) is allocation-free by construction; these
rules keep it that way at the AST level.  Reachability comes from
:func:`repro.analyze.callgraph.hot_graph`; anything it can reach once per
trace record must not:

* build containers (list/dict/set/tuple displays, comprehensions,
  allocating builtin calls, analyzed-class constructions) — ``hotpath-alloc``;
* create closures (``lambda``, nested ``def``) — ``hotpath-alloc``;
* format strings (f-strings, ``%``, ``str.format``) — ``hotpath-alloc``;
* pack ``*args``/``**kwargs`` at call sites — ``hotpath-alloc``;
* store an attribute that the receiver's class does not declare —
  ``hotpath-attr``.  A declaration is an assignment in ``__init__``, a
  class-body name or a ``__slots__`` entry, of the class or an analyzed
  base.  Every receiver the call graph can type is checked: ``self``,
  annotated parameters, locals bound from typed attributes, elements of
  typed lists and ``for`` targets over them.

Error paths are exempt: an allocation whose nearest statement is ``raise``
only runs when the simulation is already failing loudly.

``hotpath-slots`` separately requires the configured per-access record
classes (and any class constructed on the hot path) to declare
``__slots__``.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analyze.callgraph import CallResolver, ClassInfo, HotSpan, build_index, hot_graph
from repro.analyze.core import AnalysisContext, Finding, register_rule

_ALLOCATING_BUILTINS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "bytearray", "vars", "locals"}
)


def _inside_raise(span: HotSpan, node: ast.AST) -> bool:
    module = span.function.module
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.Raise):
            return True
        if ancestor is span.region:
            break
    return False


def _constant_tuple(node: ast.AST) -> bool:
    return isinstance(node, ast.Tuple) and all(
        isinstance(element, ast.Constant) for element in node.elts
    )


def _parallel_unpack(span: HotSpan, node: ast.Tuple) -> bool:
    """True for ``a, b = x, y`` right-hand sides (2-3 elements).

    CPython's peephole pass compiles these to register rotations without
    materialising a tuple, so they are not allocations.
    """
    if len(node.elts) > 3:
        return False
    parent = span.function.module.parent_of(node)
    return (
        isinstance(parent, ast.Assign)
        and parent.value is node
        and all(isinstance(t, (ast.Tuple, ast.List)) for t in parent.targets)
    )


def _alloc_message(node: ast.AST) -> str:
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return "comprehension allocates per record"
    if isinstance(node, ast.List):
        return "list display allocates per record"
    if isinstance(node, ast.Dict):
        return "dict display allocates per record"
    if isinstance(node, ast.Set):
        return "set display allocates per record"
    if isinstance(node, ast.Tuple):
        return "tuple display allocates per record"
    if isinstance(node, ast.Lambda):
        return "lambda creates a closure per record"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"nested def {node.name!r} creates a closure per record"
    if isinstance(node, ast.JoinedStr):
        return "f-string formats (and allocates) per record"
    return "allocation on the hot path"


@register_rule(
    "hotpath-alloc",
    "no allocation-bearing constructs reachable from the per-record loop",
)
def check_hotpath_alloc(context: AnalysisContext) -> List[Finding]:
    graph = hot_graph(context)
    findings: List[Finding] = []

    def report(span: HotSpan, node: ast.AST, message: str) -> None:
        if _inside_raise(span, node):
            return
        findings.append(
            span.function.module.finding(
                "hotpath-alloc",
                node,
                f"{message} (hot via {span.chain.split(' <- ')[-1]})",
                symbol=span.function.qualname,
            )
        )

    for span in graph.spans:
        for node in span.walk_region():
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                report(span, node, _alloc_message(node))
            elif isinstance(node, (ast.List, ast.Dict, ast.Set)):
                if isinstance(getattr(node, "ctx", ast.Load()), ast.Store):
                    continue
                report(span, node, _alloc_message(node))
            elif isinstance(node, ast.Tuple):
                if (
                    isinstance(node.ctx, ast.Store)
                    or _constant_tuple(node)
                    or _parallel_unpack(span, node)
                ):
                    continue  # unpack targets / folded constants / a,b = x,y
                report(span, node, _alloc_message(node))
            elif isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is span.region:
                    continue
                report(span, node, _alloc_message(node))
            elif isinstance(node, ast.JoinedStr):
                report(span, node, _alloc_message(node))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if isinstance(node.left, (ast.Constant,)) and isinstance(
                    getattr(node.left, "value", None), str
                ):
                    report(span, node, "%-formatting allocates per record")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _ALLOCATING_BUILTINS:
                    report(span, node, f"builtin {func.id}() allocates per record")
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "format"
                    and isinstance(func.value, ast.Constant)
                    and isinstance(func.value.value, str)
                ):
                    report(span, node, "str.format allocates per record")
                if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                    keyword.arg is None for keyword in node.keywords
                ):
                    report(span, node, "*args/**kwargs packing allocates per record")

    for span, call, cls in graph.constructions:
        if _inside_raise(span, call):
            continue
        findings.append(
            span.function.module.finding(
                "hotpath-alloc",
                call,
                f"constructs {cls.name} per record",
                symbol=span.function.qualname,
            )
        )
    return findings


@register_rule(
    "hotpath-attr",
    "hot-path stores must target attributes declared by the receiver's class",
)
def check_hotpath_attr(context: AnalysisContext) -> List[Finding]:
    graph = hot_graph(context)
    index = build_index(context)
    resolver = CallResolver(index, context.config.hotpath_cold_calls)
    findings: List[Finding] = []
    for span in graph.spans:
        func = span.function
        for node in span.walk_region():
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                owner = resolver.type_of(func, target.value)
                if not isinstance(owner, ClassInfo) or target.attr in index.declared_attrs(owner):
                    continue
                findings.append(
                    func.module.finding(
                        "hotpath-attr",
                        node,
                        f"creates attribute {ast.unparse(target.value)}.{target.attr} "
                        f"outside {owner.name}.__init__ (forces dict-backed instances "
                        f"and hides state from __init__ readers)",
                        symbol=func.qualname,
                    )
                )
    return findings


@register_rule(
    "hotpath-slots",
    "per-access record classes must declare __slots__",
)
def check_hotpath_slots(context: AnalysisContext) -> List[Finding]:
    graph = hot_graph(context)
    index = build_index(context)
    findings: List[Finding] = []
    required = {}
    for suffix in context.config.hotpath_slots_classes:
        info = index.class_for_qualname_suffix(suffix)
        if info is not None:
            required[info.qualname] = info
    for _span, _call, cls in graph.constructions:
        required.setdefault(cls.qualname, cls)
    for qualname in sorted(required):
        info = required[qualname]
        if info.slots is None:
            findings.append(
                info.module.finding(
                    "hotpath-slots",
                    info.node,
                    f"class {info.name} is used on the hot path but declares no "
                    f"__slots__",
                    symbol=qualname,
                )
            )
    return findings
