"""Plain-text table formatting for experiment output.

The benchmark harness prints the reproduced tables and figure data as ASCII
tables so that ``pytest benchmarks/bench_*.py --benchmark-only -s`` output can
be read side by side with the paper and copied into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Format ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)


def rows_from_dicts(dict_rows: Iterable[dict], columns: Sequence[str]) -> List[List]:
    """Project a list of dict rows onto an ordered column list."""
    return [[row.get(column, "") for column in columns] for row in dict_rows]
