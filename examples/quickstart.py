#!/usr/bin/env python3
"""Quickstart: compare Banshee against NoCache on one workload.

Runs the PageRank workload on a small scaled configuration under the
NoCache baseline and under Banshee, then prints speedup, miss rate and the
DRAM traffic split — the three quantities the paper's evaluation revolves
around.

Usage::

    python examples/quickstart.py [workload] [records_per_core]
"""

from __future__ import annotations

import sys

from repro.experiments.runner import run_simulation
from repro.sim.config import SystemConfig


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "pagerank"
    records = int(sys.argv[2]) if len(sys.argv) > 2 else 8000

    print(f"workload={workload}  records/core={records}")
    baseline = run_simulation(
        SystemConfig.scaled_default(scheme="nocache"),
        workload_name=workload,
        records_per_core=records,
    )
    banshee = run_simulation(
        SystemConfig.scaled_default(scheme="banshee"),
        workload_name=workload,
        records_per_core=records,
    )

    print(f"\nNoCache : cycles={baseline.cycles:12.0f}  ipc={baseline.ipc:.3f}  "
          f"off-package bytes/instr={baseline.total_off_bytes_per_instruction:.2f}")
    print(f"Banshee : cycles={banshee.cycles:12.0f}  ipc={banshee.ipc:.3f}  "
          f"off-package bytes/instr={banshee.total_off_bytes_per_instruction:.2f}")
    print(f"\nBanshee speedup over NoCache : {banshee.speedup_over(baseline):.3f}x")
    print(f"Banshee DRAM cache miss rate : {banshee.dram_cache_miss_rate:.3f}")
    print(f"Banshee MPKI                 : {banshee.mpki:.2f}")
    print("\nBanshee in-package traffic breakdown (bytes/instr):")
    for category, value in sorted(banshee.in_bytes_per_instruction.items()):
        if value > 0:
            print(f"  {category:12s} {value:8.3f}")


if __name__ == "__main__":
    main()
