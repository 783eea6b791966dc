#!/usr/bin/env python3
"""Multi-programmed SPEC mixes (Table 4) under different DRAM-cache schemes.

The heterogeneous mixes stress the DRAM cache differently from the
homogeneous runs: streaming, irregular and compute-bound programs compete
for the same in-package capacity and for off-package bandwidth.  This
example runs mix1/mix2/mix3 under NoCache, Alloy, and Banshee and reports
per-mix speedups and traffic.

Usage::

    python examples/multiprogrammed_mixes.py [records_per_core]
"""

from __future__ import annotations

import sys

from repro.experiments.report import format_table
from repro.experiments.runner import run_simulation
from repro.sim.config import SystemConfig
from repro.workloads.mixes import MIX_DEFINITIONS

SCHEMES = [("NoCache", "nocache"), ("Alloy 0.1", "alloy"), ("Banshee", "banshee")]


def main() -> None:
    records = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
    rows = []
    for mix in sorted(MIX_DEFINITIONS):
        baseline = None
        for label, scheme in SCHEMES:
            config = SystemConfig.scaled_default(scheme=scheme)
            if scheme == "alloy":
                config = config.with_scheme("alloy", alloy_replacement_probability=0.1)
            result = run_simulation(config, workload_name=mix, records_per_core=records)
            if baseline is None:
                baseline = result
            rows.append(
                [mix, label, round(result.speedup_over(baseline), 3),
                 round(result.mpki, 2),
                 round(result.total_in_bytes_per_instruction, 2),
                 round(result.total_off_bytes_per_instruction, 2)]
            )
    print(format_table(["mix", "scheme", "speedup", "mpki", "in_bpi", "off_bpi"], rows,
                       title="Multi-programmed SPEC mixes (Table 4)"))
    print("\nPer-core benchmark assignment:")
    for mix, benchmarks in sorted(MIX_DEFINITIONS.items()):
        print(f"  {mix}: {', '.join(benchmarks)}")


if __name__ == "__main__":
    main()
