"""Core of the static-analysis subsystem: findings, rules, module loading.

The analyzer proves the repo's structural invariants at the AST level — the
guarantees the goldens and A/B benchmarks only check *dynamically*:

* the per-record hot path allocates nothing (:mod:`repro.analyze.rules.hotpath`);
* simulation packages never read wall clocks or unseeded RNGs
  (:mod:`repro.analyze.rules.determinism`);
* every ``to_dict`` key has a consuming ``from_dict`` and every emitted event
  matches the schema (:mod:`repro.analyze.rules.serde`);
* declared variants name real configuration fields
  (:mod:`repro.analyze.rules.variants`).

Rules are plain functions registered with :func:`register_rule`; each
receives an :class:`AnalysisContext` (every parsed module plus the analyzer
configuration) and returns :class:`Finding` objects.  Findings are
suppressed inline with ``# repro: allow[rule]`` (same line or the line
above); that is the only way to keep an intentional exception.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.analyze.config import AnalyzerConfig, DEFAULT_CONFIG

#: Matches ``# repro: allow[rule]`` / ``# repro: allow[rule-a, rule-b]`` / ``allow[*]``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

#: Marks a hot-path root: on a ``def`` line the whole function is hot, on a
#: loop statement only the loop body is (see :mod:`repro.analyze.callgraph`).
HOTPATH_MARKER = "# repro: hotpath"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          #: display path (relative to the invocation cwd when possible)
    module: str        #: dotted module name — stable across checkouts
    line: int
    col: int
    message: str
    symbol: str = ""   #: enclosing function/class qualname, when known

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule}: {self.message}{symbol}"


class Module:
    """One parsed source file: AST, source lines, suppressions, imports."""

    def __init__(self, path: Path, name: str, source: str) -> None:
        self.path = path
        self.name = name
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = _parse_suppressions(self.lines)
        self.imports = _parse_imports(self.tree)
        self._parents: Optional[Dict[int, ast.AST]] = None

    @property
    def display_path(self) -> str:
        """Path relative to the cwd when under it, else absolute."""
        try:
            return os.path.relpath(self.path)
        except ValueError:  # pragma: no cover - different drive on Windows
            return str(self.path)

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[id(child)] = parent
            self._parents = parents
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent_of(node)
        while current is not None:
            yield current
            current = self.parent_of(current)

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an ``allow`` comment covers ``finding``'s rule.

        Both the finding's own line and the line directly above count, so a
        suppression can ride the flagged statement or sit on its own line.
        """
        for line in (finding.line, finding.line - 1):
            allowed = self.suppressions.get(line)
            if not allowed:
                continue
            if "*" in allowed or finding.rule in allowed:
                return True
            if any(finding.rule.startswith(prefix + "-") for prefix in allowed):
                return True
        return False

    def finding(
        self, rule: str, node: ast.AST, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.display_path,
            module=self.name,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for index, line in enumerate(lines, start=1):
        match = _ALLOW_RE.search(line)
        if match:
            rules = {token.strip() for token in match.group(1).split(",") if token.strip()}
            if rules:
                suppressions[index] = rules
    return suppressions


def _parse_imports(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted names they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import time``
    maps ``time -> time.time``.  Used to resolve attribute chains like
    ``np.random.default_rng`` to canonical dotted names.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a canonical dotted name, if possible.

    ``np.random.default_rng`` with ``np -> numpy`` yields
    ``numpy.random.default_rng``; a bare imported name yields its import
    target.  Chains rooted anywhere else (locals, ``self``) yield ``None``.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = imports.get(current.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


class AnalysisContext:
    """Everything a rule sees: parsed modules plus the configuration."""

    def __init__(self, modules: List[Module], config: AnalyzerConfig) -> None:
        self.modules = modules
        self.config = config
        self.by_name: Dict[str, Module] = {module.name: module for module in modules}
        #: Scratch space for cross-rule memoisation (the call graph lives here).
        self.cache: Dict[str, object] = {}

    def modules_under(self, package_prefixes: Sequence[str]) -> List[Module]:
        selected = []
        for module in self.modules:
            if any(
                module.name == prefix or module.name.startswith(prefix + ".")
                for prefix in package_prefixes
            ):
                selected.append(module)
        return selected


# --------------------------------------------------------------------------- rule registry

RuleFunc = Callable[[AnalysisContext], List[Finding]]


@dataclass(frozen=True)
class Rule:
    name: str
    description: str
    check: RuleFunc = field(compare=False)


RULES: Dict[str, Rule] = {}


def register_rule(name: str, description: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a rule function under ``name`` (the pluggable extension point)."""

    def decorator(func: RuleFunc) -> RuleFunc:
        if name in RULES:
            raise ValueError(f"rule {name!r} already registered")
        RULES[name] = Rule(name=name, description=description, check=func)
        return func

    return decorator


def all_rules() -> Dict[str, Rule]:
    _ensure_rules_loaded()
    return dict(RULES)


def _ensure_rules_loaded() -> None:
    # Importing the rules package runs every @register_rule decorator.
    import repro.analyze.rules  # noqa: F401


# --------------------------------------------------------------------------- loading / running


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package layout on disk.

    Walks up while ``__init__.py`` exists, so ``src/repro/sim/engine.py``
    becomes ``repro.sim.engine`` regardless of the invocation directory;
    files outside any package (test fixtures) use their bare stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.stem]
    return ".".join(reversed(parts))


def load_modules(paths: Sequence) -> List[Module]:
    """Parse every ``.py`` file under ``paths`` (files or directories)."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    modules = []
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        modules.append(Module(file_path, module_name_for(file_path), source))
    return modules


def run_analysis(
    paths: Sequence,
    rules: Optional[Iterable[str]] = None,
    config: Optional[AnalyzerConfig] = None,
) -> List[Finding]:
    """Run ``rules`` (default: all) over ``paths``; returns unsuppressed findings."""
    _ensure_rules_loaded()
    config = config or DEFAULT_CONFIG
    selected = list(rules) if rules is not None else sorted(RULES)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        raise ValueError(f"unknown rules {unknown}; available: {sorted(RULES)}")
    context = AnalysisContext(load_modules(paths), config)
    findings: List[Finding] = []
    for name in selected:
        for finding in RULES[name].check(context):
            module = context.by_name.get(finding.module)
            if module is not None and module.is_suppressed(finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings
