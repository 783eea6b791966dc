#!/usr/bin/env python3
"""Campaign subsystem walkthrough: declare, fan out, resume, export.

Runs a small (scheme x workload x seed) matrix through
:func:`repro.campaign.run_campaign` twice against the same store directory —
the second pass performs zero simulations because every cell is served from
the persistent :class:`~repro.campaign.ResultStore` — then rebuilds a
Figure-4-style speedup table straight from the store and exports it as CSV.

Usage::

    python examples/campaign_demo.py [store_dir] [workers]

The same flow is available without writing code::

    python -m repro.campaign run --store ./campaign-store \\
        --schemes nocache banshee alloy --workloads gcc mcf --seeds 1 2 \\
        --records 2000 --cores 2 --preset tiny --workers 4
    python -m repro.campaign status --store ./campaign-store
    python -m repro.campaign export --store ./campaign-store --format csv
"""

from __future__ import annotations

import sys
import tempfile

from repro.campaign import CampaignSpec, ResultStore, SweepGrid, export_csv, run_campaign
from repro.experiments.report import format_table
from repro.experiments.runner import ResultCache


def progress(done, total, outcome):
    source = "store" if outcome.from_store else f"{outcome.wall_seconds:.2f}s"
    print(f"  [{done}/{total}] {outcome.cell.describe():<32s} {source}")


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="campaign-demo-")
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    spec = CampaignSpec(
        name="demo",
        grids=[
            SweepGrid(
                schemes=["nocache", "banshee", ("Alloy 0.1", "alloy", {"alloy_replacement_probability": 0.1})],
                workloads=["gcc", "mcf"],
                seeds=[1, 2],
            )
        ],
        records_per_core=2000,
        num_cores=2,
        preset="tiny",
    )
    store = ResultStore(store_dir)

    print(f"First pass: {spec.num_cells} cells across {workers} workers -> {store.path}")
    report = run_campaign(spec, store=store, workers=workers, progress=progress)
    print(f"  simulated={len(report.simulated)} from_store={len(report.skipped)} errors={len(report.errors)}\n")

    print("Second pass against the same store (resumable: nothing re-simulates)")
    report = run_campaign(spec, store=store, workers=workers)
    print(f"  simulated={len(report.simulated)} from_store={len(report.skipped)}\n")

    # Rebuild a speedup table purely from the store: the read-through cache
    # finds every seed-1 cell of the spec on disk, so no cell runs the engine.
    cache = ResultCache(store=store)
    results = {(cell.workload, cell.label): cache.result(cell)
               for cell in spec.cells() if cell.seed == 1}
    rows = []
    for workload in ("gcc", "mcf"):
        baseline = results[(workload, "nocache")]
        for label in ("banshee", "Alloy 0.1"):
            rows.append([workload, label, round(results[(workload, label)].speedup_over(baseline), 3)])
    print(format_table(["workload", "scheme", "speedup_vs_nocache"], rows,
                       title="Speedups rebuilt from the store (0 engine runs)"))
    print(f"  cache: hits={cache.hits} misses={cache.misses} store_hits={cache.store_hits}\n")

    csv_text = export_csv(store)
    print("CSV export (first 3 lines):")
    for line in csv_text.splitlines()[:3]:
        print(f"  {line}")
    print(f"\nStore kept at {store_dir} — re-run this script to see a full store-hit pass.")


if __name__ == "__main__":
    main()
