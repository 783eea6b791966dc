#!/usr/bin/env python3
"""Graph-analytics study: all DRAM-cache schemes on the throughput workloads.

The paper motivates in-package DRAM with graph and machine-learning codes
(Section 1) and reports that Banshee's largest gains come from the
high-traffic graph benchmarks.  This example runs every scheme on the graph
workloads and prints a Figure-4-style comparison restricted to them.

Usage::

    python examples/graph_analytics.py [records_per_core]
"""

from __future__ import annotations

import sys

from repro.experiments.report import format_table
from repro.experiments.runner import run_simulation
from repro.sim.config import SystemConfig
from repro.sim.results import geometric_mean
from repro.workloads.registry import GRAPH_WORKLOADS

SCHEMES = [
    ("NoCache", "nocache", {}),
    ("Unison", "unison", {}),
    ("TDC", "tdc", {}),
    ("Alloy 0.1", "alloy", {"alloy_replacement_probability": 0.1}),
    ("Banshee", "banshee", {}),
    ("CacheOnly", "cacheonly", {}),
]


def main() -> None:
    records = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
    rows = []
    per_scheme = {label: [] for label, _s, _o in SCHEMES}
    for workload in GRAPH_WORKLOADS:
        baseline = None
        for label, scheme, overrides in SCHEMES:
            config = SystemConfig.scaled_default(scheme=scheme)
            if overrides:
                config = config.with_scheme(scheme, **overrides)
            result = run_simulation(config, workload_name=workload, records_per_core=records)
            if label == "NoCache":
                baseline = result
            speedup = result.speedup_over(baseline)
            per_scheme[label].append(speedup)
            rows.append(
                [workload, label, round(speedup, 3), round(result.dram_cache_miss_rate, 3),
                 round(result.total_in_bytes_per_instruction, 2),
                 round(result.total_off_bytes_per_instruction, 2)]
            )
    print(format_table(
        ["workload", "scheme", "speedup", "miss_rate", "in_bpi", "off_bpi"], rows,
        title="Graph analytics workloads (speedup normalised to NoCache)",
    ))
    print("\nGeometric-mean speedups:")
    for label, values in per_scheme.items():
        print(f"  {label:10s} {geometric_mean(values):.3f}")


if __name__ == "__main__":
    main()
