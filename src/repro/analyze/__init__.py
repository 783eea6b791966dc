"""repro.analyze: invariant-enforcing static analysis.

AST-level proofs of the repo's structural guarantees — an allocation-free
per-record hot path, deterministic simulation packages, symmetric
``to_dict``/``from_dict`` pairs and schema-conformant event emission — run
by ``python -m repro.analyze src/repro`` (see the CI ``analyze`` job).

Public surface:

* :func:`repro.analyze.core.run_analysis` / :class:`~repro.analyze.core.Finding`
* :func:`repro.analyze.core.register_rule` — the pluggable rule registry
* :class:`repro.analyze.config.AnalyzerConfig` — the declared invariants
"""

from repro.analyze.config import AnalyzerConfig, DEFAULT_CONFIG
from repro.analyze.core import Finding, all_rules, register_rule, run_analysis

__all__ = [
    "AnalyzerConfig",
    "DEFAULT_CONFIG",
    "Finding",
    "all_rules",
    "register_rule",
    "run_analysis",
]
