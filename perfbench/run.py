"""Repository benchmark: simulator throughput, set-up time and memory per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hit-path --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``hit-path``, ``miss-read``, ``miss-write`` — fixed batches of
  simulation cells (:mod:`perfbench.cells`), repeated for ``--seconds``
  and timed in reference seconds (:mod:`perfbench.hostspeed`).
* ``reproduce`` — campaign -> store -> CSV -> figures from an empty store
  (:mod:`perfbench.reproduce`), repeated for ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics instead.  Either way it checks every cell, prints a
human-readable summary (with ``cell_failure_ratio`` and the simulated
results digest), and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark builds nothing: it imports the simulator from ``src/`` next
to this directory and exits with status 2 when that is missing.  Scratch
files live in ``.perfbench_work/<pid>/`` at the repository root and are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work"

WORKLOADS = ("hit-path", "miss-read", "miss-write", "reproduce")
SETUP_PROBES = 7

#: name -> unit, as declared in BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "records_per_s": "rec/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER: Dict[str, str] = {
    "workloads.gen_s": "s",
    "setup.cell_s": "s",
    "sim.self_s": "s",
    "sim.fast_path_ratio": "ratio",
    "sim.system_self_s": "s",
    "vm.walks": "count",
    "vm.walk_s": "s",
    "vm.tlb_miss_ratio": "ratio",
    "cache.calls": "count",
    "cache.self_s": "s",
    "cache.wb_per_llc_miss": "ratio",
    "memctrl.requests": "count",
    "memctrl.self_s": "s",
    "dramcache.calls": "count",
    "dramcache.self_s": "s",
    "dramcache.hit_ratio": "ratio",
    "dramcache.pte_updates": "count",
    "dram.calls": "count",
    "dram.self_s": "s",
    "dram.ns_per_call": "ns",
    "dram.in_bytes_per_instr": "B/instr",
    "dram.off_bytes_per_instr": "B/instr",
    "model.ipc.nocache": "instr/cycle",
    "model.ipc.alloy": "instr/cycle",
    "model.ipc.unison": "instr/cycle",
    "model.ipc.banshee": "instr/cycle",
    "campaign.in_cell_s": "s",
    "campaign.overhead_s_per_cell": "s",
    "campaign.cell_s.p50": "s",
    "campaign.store_s": "s",
    "campaign.export_s": "s",
    "experiments.figures_s": "s",
    "experiments.resimulated": "count",
    "tracing.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.attributed_ratio": "ratio",
    "trace.miss_path_share": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase (at least one pass always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="reproduce only: fail one campaign cell through the repro.faults "
                             "error plan (exercises the failure path)")
    return parser.parse_args(argv)


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident memory in MiB (ru_maxrss is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup_seconds(workload: str, seed: int, workdir: Path) -> List[Tuple[float, float]]:
    """Run the set-up probe :data:`SETUP_PROBES` times, each in a fresh
    interpreter: (host seconds, reference seconds) of each.

    The probes run on this process's CPU, pinned, so that the calibration
    loops around each probe time the CPU the probe ran on.
    """
    from perfbench.hostspeed import Calibrator, reference_seconds

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrator = Calibrator()

    def loop_seconds() -> float:
        return statistics.median(calibrator.loop_seconds() for _ in range(5))

    samples = []
    for index in range(SETUP_PROBES):
        scratch = workdir / f"probe-{index}"
        loop_before = loop_seconds()
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(scratch)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        host_s = float(completed.stdout.strip().splitlines()[-1])
        samples.append((host_s, reference_seconds(host_s, loop_before, loop_seconds())))
        shutil.rmtree(scratch, ignore_errors=True)
    return samples


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    if args.inject_fault and args.workload != "reproduce":
        print("perfbench: --inject-fault applies to the reproduce workload only", file=sys.stderr)
        return 2

    workdir = SCRATCH / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # Keep every scratch file (the supervisor's spool included) in the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        if args.workload == "reproduce":
            from perfbench import reproduce

            outcome = reproduce.measure(args.seed, args.seconds, bool(args.trace), workdir,
                                        inject_fault=args.inject_fault)
        else:
            from perfbench import cells

            outcome = cells.measure(cells.SIM_WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace))
        rss = peak_rss_mb(include_children=args.workload == "reproduce")
        setups = setup_seconds(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still holds its scratch directory
            pass

    end_to_end = {
        "records_per_s": outcome.records_per_s,
        "setup_s": statistics.median(reference_s for _host_s, reference_s in setups),
        "peak_rss_mb": rss,
    }
    ratio = outcome.failed / outcome.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  records_per_s       {end_to_end['records_per_s']:.1f} rec/s "
          f"({len(outcome.pass_records_per_s)} timed passes; median pass "
          f"{statistics.median(outcome.pass_records_per_s):.1f} per host second)")
    print(f"  setup_s             {end_to_end['setup_s']:.4f} s (median of {len(setups)} set-ups in "
          f"reference seconds; {statistics.median(host_s for host_s, _ in setups):.4f} host seconds)")
    print(f"  peak_rss_mb         {rss:.1f} MB (1 reading, after the timed phase)")
    print(f"  cell_failure_ratio  {ratio:.4g} ({outcome.failed} failed / {outcome.attempted} cells)")
    print(f"  digest              {outcome.digest}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")

    if args.trace:
        values = {name: float(outcome.layers.get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
        for name, value in values.items():
            print(f"  {name:30s} {value:.6g} {units[name]}")
    else:
        values = end_to_end
        units = END_TO_END
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
