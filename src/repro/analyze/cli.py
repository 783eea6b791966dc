"""``python -m repro.analyze`` — the invariant gate.

Usage::

    python -m repro.analyze src/repro                  # all rules, text output
    python -m repro.analyze src/repro --rule determinism,serde-symmetry
    python -m repro.analyze src/repro --format json
    python -m repro.analyze --list-rules

Exit status: 0 when no findings remain after inline ``# repro: allow[rule]``
suppressions; 1 when any finding remains (this is the CI gate); 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analyze.core import all_rules, run_analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static analysis enforcing the repo's structural invariants "
        "(hot-path purity, determinism, serde symmetry, event schema).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="rules:\n"
        + "\n".join(
            f"  {name:<16s} {rule.description}" for name, rule in sorted(all_rules().items())
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE[,RULE]",
        help="run only these rules (repeatable, comma-separable); default: all",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in sorted(all_rules().items()):
            print(f"{name:<16s} {rule.description}")
        return 0

    rules: Optional[List[str]] = None
    if args.rule:
        rules = [token.strip() for chunk in args.rule for token in chunk.split(",") if token.strip()]

    try:
        findings = run_analysis(args.paths, rules=rules)
    except (ValueError, FileNotFoundError, SyntaxError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                {"findings": [finding.to_dict() for finding in findings]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding{'s' if len(findings) != 1 else ''}")
    return 1 if findings else 0
