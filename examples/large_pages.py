#!/usr/bin/env python3
"""Large-page (2 MB) study (Section 5.4.1).

Runs the graph workloads with regular 4 KB pages and with 2 MB pages on a
Banshee configuration whose DRAM cache is large enough to hold whole 2 MB
pages, using the paper's large-page sampling coefficient (0.001).  The rows
are those of :func:`repro.experiments.figures.extension_large_pages`, so the
example and the figure run the same configurations.

Usage::

    python examples/large_pages.py [records_per_core]
"""

from __future__ import annotations

import sys

from repro.experiments.figures import extension_large_pages
from repro.experiments.report import format_table, rows_from_dicts


def main() -> None:
    records = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    result = extension_large_pages(records_per_core=records)
    print(format_table(result["headers"], rows_from_dicts(result["rows"], result["headers"]),
                       title="Banshee with 2 MB pages vs 4 KB pages"))
    print(f"average gain: {result['summary']['average_gain_pct']}%")


if __name__ == "__main__":
    main()
