"""Serde symmetry rules.

``serde-symmetry`` cross-checks every class that defines both ``to_dict``
and ``from_dict``: each key the writer produces must be accepted by the
reader and vice versa.  Both sides are extracted statically:

* explicit keys — dict-literal keys in ``return {...}``, ``payload["k"] =``
  assignments, ``payload["k"]`` / ``.get("k")`` / ``.pop("k")`` reads;
* wildcard sides — ``dataclasses.asdict(self)`` writes every field;
  ``cls(**data)`` / ``dataclass_from_dict(cls, payload)`` accepts exactly
  the class's fields (dataclass fields, or ``__init__`` parameters).

A side whose keys cannot be determined at all is skipped rather than
guessed at.

``event-schema`` checks that every ``.emit("name", ...)`` /
``make_event("name", ...)`` call site uses an event name declared in the
``EVENT_TYPES`` schema constant (:mod:`repro.obs.events`), so an emitter
typo fails CI instead of producing unreadable logs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analyze.core import AnalysisContext, Finding, register_rule

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class KeySet:
    """Statically extracted key usage of one serde side."""

    explicit: Set[str] = field(default_factory=set)
    wildcard: bool = False   #: covers every class field
    unknown: bool = False    #: could not be determined; skip checks

    def effective(self, fields: Set[str]) -> Set[str]:
        return self.explicit | (fields if self.wildcard else set())


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _class_fields(node: ast.ClassDef) -> Set[str]:
    """Acceptable constructor keys: dataclass fields or __init__ parameters."""
    if _is_dataclass(node):
        names = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                annotation = ast.dump(stmt.annotation)
                if "ClassVar" not in annotation:
                    names.add(stmt.target.id)
        return names
    init = next(
        (s for s in node.body if isinstance(s, _FUNCTION_NODES) and s.name == "__init__"),
        None,
    )
    if init is None:
        return set()
    args = init.args
    names = {a.arg for a in args.args + args.kwonlyargs} - {"self"}
    return names


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _callee_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _writer_keys(func: ast.AST) -> KeySet:
    keys = KeySet()
    returned_names: Set[str] = set()
    determined = False
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                for key_node in node.value.keys:
                    key = _const_str(key_node) if key_node is not None else None
                    if key is not None:
                        keys.explicit.add(key)
                determined = True
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
            elif isinstance(node.value, ast.Call) and _callee_name(node.value) == "asdict":
                keys.wildcard = True
                determined = True
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in returned_names:
                if isinstance(node.value, ast.Dict):
                    for key_node in node.value.keys:
                        key = _const_str(key_node) if key_node is not None else None
                        if key is not None:
                            keys.explicit.add(key)
                    determined = True
                elif isinstance(node.value, ast.Call) and _callee_name(node.value) == "asdict":
                    keys.wildcard = True
                    determined = True
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in returned_names
            ):
                key = _const_str(target.slice)
                if key is not None:
                    keys.explicit.add(key)
                    determined = True
    if not determined:
        keys.unknown = True
    return keys


def _reader_keys(func: ast.AST) -> KeySet:
    keys = KeySet()
    determined = False
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(getattr(node, "ctx", None), ast.Load):
            key = _const_str(node.slice)
            if key is not None:
                keys.explicit.add(key)
                determined = True
        elif isinstance(node, ast.Call):
            name = _callee_name(node)
            if name in ("get", "pop") and node.args:
                key = _const_str(node.args[0])
                if key is not None:
                    keys.explicit.add(key)
                    determined = True
            elif name == "dataclass_from_dict":
                keys.wildcard = True
                determined = True
            if any(keyword.arg is None for keyword in node.keywords):
                keys.wildcard = True  # cls(**data): accepts exactly the fields
                determined = True
    if not determined:
        keys.unknown = True
    return keys


@register_rule(
    "serde-symmetry",
    "every to_dict key must be consumed by the paired from_dict, and vice versa",
)
def check_serde_symmetry(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for module in context.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for writer_name, reader_name in context.config.serde_pairs:
                methods = {
                    stmt.name: stmt
                    for stmt in node.body
                    if isinstance(stmt, _FUNCTION_NODES)
                }
                writer = methods.get(writer_name)
                reader = methods.get(reader_name)
                if writer is None or reader is None:
                    continue
                writes = _writer_keys(writer)
                reads = _reader_keys(reader)
                if writes.unknown or reads.unknown:
                    continue
                fields = _class_fields(node)
                written = writes.effective(fields)
                read = reads.effective(fields)
                for key in sorted(written - read):
                    findings.append(
                        module.finding(
                            "serde-symmetry",
                            writer,
                            f"{writer_name} writes key {key!r} that {reader_name} "
                            f"never consumes",
                            symbol=f"{node.name}.{writer_name}",
                        )
                    )
                for key in sorted(read - written):
                    findings.append(
                        module.finding(
                            "serde-symmetry",
                            reader,
                            f"{reader_name} consumes key {key!r} that {writer_name} "
                            f"never writes",
                            symbol=f"{node.name}.{reader_name}",
                        )
                    )
    return findings


# --------------------------------------------------------------------------- event schema


def _schema_names(context: AnalysisContext) -> Tuple[Optional[str], Set[str]]:
    """(defining module name, declared event names) for the schema constant."""
    constant = context.config.event_types_constant
    for module in context.modules:
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == constant
                for target in node.targets
            ):
                continue
            names = {
                value.value
                for value in ast.walk(node.value)
                if isinstance(value, ast.Constant) and isinstance(value.value, str)
            }
            if names:
                return module.name, names
    return None, set()


@register_rule(
    "event-schema",
    "emitted event names must appear in the EVENT_TYPES schema",
)
def check_event_schema(context: AnalysisContext) -> List[Finding]:
    schema_module, names = _schema_names(context)
    if schema_module is None:
        return []
    findings: List[Finding] = []
    for module in context.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            if callee not in ("emit", "make_event") or not node.args:
                continue
            event = _const_str(node.args[0])
            if event is not None and event not in names:
                findings.append(
                    module.finding(
                        "event-schema",
                        node,
                        f"emits unknown event {event!r}; declare it in "
                        f"{schema_module}.{context.config.event_types_constant} "
                        f"or fix the name",
                    )
                )
    return findings
