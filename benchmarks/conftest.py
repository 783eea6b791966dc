"""Shared helpers for the benchmark (figure/table reproduction) suite.

Each benchmark module reproduces one table or figure of the paper: it runs
the required simulations (through the process-wide result cache, so figures
that share a matrix do not re-simulate), prints the reproduced rows as an
ASCII table, and registers the wall-clock cost with pytest-benchmark.

Run with (name the files: pytest collects only ``test_*.py`` modules by
default, so ``pytest benchmarks/`` collects nothing)::

    pytest benchmarks/bench_*.py --benchmark-only -s

Environment knobs: ``REPRO_BENCH_RECORDS`` (trace records per core, default
30000) and ``REPRO_BENCH_CORES`` (simulated cores, default 4).
"""

from __future__ import annotations

from repro.experiments.report import format_table, rows_from_dicts


def run_and_report(benchmark, figure_fn, title, **kwargs):
    """Run a figure-reproduction function once under pytest-benchmark and print it."""
    result = benchmark.pedantic(lambda: figure_fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0)
    table = format_table(result["headers"], rows_from_dicts(result["rows"], result["headers"]), title=title)
    print()
    print(table)
    if result.get("summary"):
        print(f"summary: {result['summary']}")
    return result
