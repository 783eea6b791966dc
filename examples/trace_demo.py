#!/usr/bin/env python3
"""Trace subsystem walkthrough: record once, transform, replay everywhere.

Captures two single-program workloads to ``.rtrace`` files, verifies that
replaying a capture is bit-identical to re-running its generator, interleaves
the captures into a custom multi-programmed mix that no generator defines,
and finally runs that mix against two scheme variants of the tag-buffer axis
— all through the ordinary ``trace:<path>`` workload name, so the same files
work with ``repro.campaign`` and the figure functions.

Usage::

    python examples/trace_demo.py [trace_dir]

The same flow is available without writing code::

    python -m repro.trace record --workload pagerank --output pr.rtrace \\
        --records 2000 --cores 1 --scale 0.05
    python -m repro.trace transform interleave --inputs pr.rtrace mcf.rtrace \\
        --output mix.rtrace --name pr+mcf
    python -m repro.trace replay mix.rtrace --scheme banshee-tb4k
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments.report import format_table
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.system import System
from repro.trace import TraceWorkload, interleave_traces, record_named, slice_trace
from repro.workloads.registry import get_workload

RECORDS = 2000
SCALE = 0.05


def run(workload, scheme: str):
    config = SystemConfig.tiny(scheme=scheme, num_cores=workload.num_cores, seed=1)
    return SimulationEngine(System(config, workload)).run(RECORDS)


def main() -> None:
    trace_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="traces-"))
    trace_dir.mkdir(parents=True, exist_ok=True)

    # 1. Capture: pay the generator cost once per workload.
    captures = {}
    for name in ("pagerank", "mcf"):
        path = str(trace_dir / f"{name}.rtrace")
        meta = record_named(name, path, records_per_core=RECORDS, num_cores=1,
                            scale=SCALE, seed=1, compress=True)
        captures[name] = path
        print(f"recorded {name}: {meta.stats['records']} records, "
              f"{meta.stats['unique_pages']} pages -> {path}")

    # 2. Replay fidelity: a trace is its generator, bit for bit.
    generated = run(get_workload("pagerank", 1, scale=SCALE, seed=1), "banshee")
    replayed = run(TraceWorkload(captures["pagerank"]), "banshee")
    assert replayed.identity_dict() == generated.identity_dict()
    print("\nreplay of pagerank.rtrace is bit-identical to the generator run\n")

    # 3. Transform: a custom two-program mix no generator defines, built from
    #    the captures (each slot rebased into its own 1 GB slice), trimmed to
    #    a common length first.
    short = {}
    for name, path in captures.items():
        short[name] = str(trace_dir / f"{name}-short.rtrace")
        slice_trace(path, short[name], records=RECORDS)
    mix_path = str(trace_dir / "pr_mcf.rtrace")
    mix_meta = interleave_traces([short["pagerank"], short["mcf"]], mix_path, name="pr+mcf")
    print(f"interleaved mix '{mix_meta.name}': {mix_meta.num_cores} cores, "
          f"{mix_meta.stats['records']} records")

    # 4. Sweep the mix across two points of the tag-buffer axis.
    rows = []
    for scheme in ("banshee", "banshee-tb4k"):
        result = run(TraceWorkload(mix_path), scheme)
        summary = result.summary()
        rows.append([scheme, summary["ipc"], summary["miss_rate"],
                     summary["in_bpi"], summary["off_bpi"]])
    print()
    print(format_table(["scheme", "ipc", "miss_rate", "in_bpi", "off_bpi"],
                       rows, title=f"Custom mix '{mix_meta.name}' across the tag-buffer axis"))
    print(f"\ntraces kept in {trace_dir} — sweep the mix through a campaign with:\n"
          f"  python -m repro.campaign run --store ./trace-store "
          f"--schemes banshee banshee-tb4k \\\n"
          f"      --workloads trace:{mix_path} --records {RECORDS} --cores 2 --preset tiny")


if __name__ == "__main__":
    main()
