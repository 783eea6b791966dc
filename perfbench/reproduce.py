"""The reproduce workload: campaign -> store -> CSV -> figures, from an empty store.

One *pipeline* runs a Figure-4-shaped campaign (NoCache plus every
``FIGURE4_SCHEMES`` entry x ``PROGRAMS``, 2 cores, short cells) into an
empty ``ResultStore`` with the default supervised executor and 2 workers,
exports the store as CSV, then rebuilds Figures 4, 5 and 6 from that
store.  The figure functions fix the simulation seed at 1, so the
benchmark seed only permutes the campaign's cell order (and picks the
cell that ``inject_fault`` breaks).
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import faults
from repro.campaign.driver import run_campaign
from repro.campaign.export import export_csv
from repro.campaign.spec import CampaignSpec, SweepGrid
from repro.campaign.store import ResultStore
from repro.experiments.defaults import FIGURE4_SCHEMES
from repro.experiments.figures import (
    figure4_speedup,
    figure5_in_package_traffic,
    figure6_off_package_traffic,
)
from repro.experiments.runner import ResultCache, run_simulation
from repro.sim.results import SimulationResults

from perfbench.cells import (
    Outcome,
    combined_digest,
    identity_digest,
    invariant_problems,
    model_metrics,
)
from perfbench.spans import Tracer, no_span

PROGRAMS = ("gcc", "mcf", "lbm", "pagerank")
NUM_CORES = 2
RECORDS_PER_CORE = 2000
WORKERS = 2
PREFIX_RECORDS_PER_CORE = 500
#: (scheme, program) of the scalar-vs-batch prefix check; fixed, so the
#: check costs the same memory whatever order the seed gives the cells.
CHECK_CELL = ("banshee", "mcf")
FIGURES = (figure4_speedup, figure5_in_package_traffic, figure6_off_package_traffic)


def make_spec(seed: int) -> CampaignSpec:
    programs = list(PROGRAMS)
    random.Random(seed).shuffle(programs)
    schemes = [("NoCache", "nocache", {})] + list(FIGURE4_SCHEMES)
    return CampaignSpec(
        name="perfbench-reproduce",
        grids=[SweepGrid(schemes=schemes, workloads=programs, seeds=(1,))],
        records_per_core=RECORDS_PER_CORE,
        num_cores=NUM_CORES,
        preset="scaled",
    )


def set_up(seed: int, store_dir: Path) -> ResultStore:
    """Spec expansion, cell keys and opening an empty store (what the set-up probe times)."""
    spec = make_spec(seed)
    for cell in spec.cells():
        cell.key()
    return ResultStore(store_dir)


@dataclass
class Pipeline:
    """One campaign -> store -> CSV -> figures pass."""

    wall_s: float = 0.0
    campaign_s: float = 0.0
    records: int = 0
    cell_seconds: List[float] = field(default_factory=list)
    errors: int = 0
    resimulated: int = 0
    #: Failed cells: campaign errors, cells the figures had to re-simulate
    #: although the campaign stored them, and cells breaking an invariant.
    failed: int = 0
    results: List[SimulationResults] = field(default_factory=list)
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def records_per_s(self) -> float:
        return self.records / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def overhead_s_per_cell(self) -> float:
        cells = len(self.cell_seconds)
        return (WORKERS * self.campaign_s - sum(self.cell_seconds)) / cells if cells else 0.0


def run_pipeline(spec: CampaignSpec, store_dir: Path, span: Callable = no_span) -> Pipeline:
    store = ResultStore(store_dir)
    programs = list(spec.grids[0].workloads)
    caches = [ResultCache(store=store) for _ in FIGURES]
    outcome = Pipeline()
    start = time.perf_counter()
    with span("pipeline"):
        with span("campaign"):
            report = run_campaign(spec, store=store, workers=WORKERS)
        outcome.campaign_s = time.perf_counter() - start
        with span("campaign.export"):
            csv_text = export_csv(store)
        with span("experiments"):
            figures = [
                figure(workloads=programs, records_per_core=spec.records_per_core,
                       num_cores=NUM_CORES, cache=cache)
                for figure, cache in zip(FIGURES, caches)
            ]
    outcome.wall_s = time.perf_counter() - start

    measured = NUM_CORES * (RECORDS_PER_CORE - int(RECORDS_PER_CORE * spec.warmup_fraction))
    for cell_outcome in report.simulated:
        outcome.records += cell_outcome.cell.records_per_core * NUM_CORES
        outcome.cell_seconds.append(cell_outcome.wall_seconds)
    for cell_outcome in report.errors:
        outcome.problems.append(f"{cell_outcome.cell.describe()}: {cell_outcome.error.splitlines()[0]}")
    outcome.errors = len(report.errors)
    outcome.resimulated = sum(cache.misses for cache in caches)
    # Re-simulating a cell the campaign reported as failed is the expected
    # recovery; re-simulating a stored cell is a store/key mismatch.
    outcome.failed = outcome.errors + max(0, outcome.resimulated - outcome.errors)
    keys = sorted(store.keys())
    outcome.results = [SimulationResults.from_dict(store.get_record(key)["result"]) for key in keys]
    for key, result in zip(keys, outcome.results):
        problems = invariant_problems(result, measured)
        outcome.failed += bool(problems)
        outcome.problems.extend(f"{key[:12]}: {problem}" for problem in problems)
    rows = len(csv_text.splitlines()) - 1
    if rows != len(report.simulated):
        outcome.failed += 1
        outcome.problems.append(f"CSV export holds {rows} rows, campaign stored {len(report.simulated)}")
    figure_text = repr([(figure["rows"], figure["summary"]) for figure in figures])
    outcome.digest = combined_digest([identity_digest(r) for r in outcome.results] + [figure_text])
    return outcome


def scalar_prefix_problem(spec: CampaignSpec) -> Optional[str]:
    """Re-run a short prefix of :data:`CHECK_CELL` in the scalar and batch modes."""
    cell = next(cell for cell in spec.cells() if (cell.scheme, cell.workload) == CHECK_CELL)
    runs = {
        mode: run_simulation(cell.config, workload_name=cell.workload,
                             records_per_core=PREFIX_RECORDS_PER_CORE, scale=cell.scale,
                             seed=cell.seed, engine_mode=mode).identity_dict()
        for mode in ("scalar", "batch")
    }
    if runs["scalar"] != runs["batch"]:
        return f"{cell.describe()}: scalar and batch engines disagree on a prefix"
    return None


def measure(seed: int, seconds: float, trace: bool, workdir: Path,
            inject_fault: bool = False) -> Outcome:
    """Repeat pipelines for ``seconds``; traced runs alternate plain and traced ones.

    ``inject_fault`` arms the ``error`` fault plan on one cell of the first
    pipeline, exercising the failure path: the campaign records the error,
    the figures re-simulate that cell, and the run still finishes.
    """
    spec = make_spec(seed)
    unique_cells = len({cell.key() for cell in spec.cells()})
    tracer = Tracer() if trace else None

    def pipeline(span: Callable = no_span) -> Pipeline:
        store_dir = workdir / f"store-{len(plain) + len(traced)}"
        try:
            return run_pipeline(spec, store_dir, span)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    plain: List[Pipeline] = []
    traced: List[Pipeline] = []
    # The first pass warms lazy imports and caches; it is checked, not timed.
    if inject_fault:
        faults.install(f"error@cell={seed % unique_cells}", state_dir=str(workdir / "faults"))
    try:
        warmup = pipeline()
    finally:
        faults.install(None)
    deadline = time.perf_counter() + seconds
    while not plain or (tracer is not None and not traced) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            tracer.install([(ResultStore, "get", "campaign.store"),
                            (ResultStore, "put", "campaign.store")])
            try:
                traced.append(pipeline(tracer.span))
            finally:
                tracer.remove()
        else:
            plain.append(pipeline())

    pipelines = [warmup] + plain + traced
    attempted = sum(len(p.cell_seconds) + p.errors for p in pipelines) + 1
    failed = sum(p.failed for p in pipelines)
    problems = [problem for p in pipelines for problem in p.problems]
    for index, p in enumerate(pipelines[1:], start=1):
        if p.digest != pipelines[0].digest:
            failed += 1
            problems.append(f"pipeline {index}: results differ from the warm-up pipeline")
    problem = scalar_prefix_problem(spec)
    if problem is not None:
        failed += 1
        problems.append(problem)

    outcome = Outcome(
        # Not the fastest pipeline, unlike the simulation workloads: the
        # supervisor polls its workers every 50 ms, so a pipeline's wall
        # time is quantized and the fastest one is a lucky outlier.
        records_per_s=statistics.median(p.records_per_s for p in plain),
        pass_records_per_s=[p.records_per_s for p in plain],
        attempted=attempted,
        failed=failed,
        problems=problems,
        digest=pipelines[0].digest,
        notes=[f"{unique_cells} cells per pipeline ({NUM_CORES} cores, {RECORDS_PER_CORE} records/core), "
               f"{WORKERS} campaign workers; figures re-simulated "
               f"{sum(p.resimulated for p in pipelines)} cell(s) over {len(pipelines)} pipeline(s)"],
    )
    if tracer is not None:
        outcome.layers = _layer_metrics(tracer, traced, plain)
    return outcome


def _layer_metrics(tracer: Tracer, traced: List[Pipeline], plain: List[Pipeline]) -> Dict[str, float]:
    pipelines = plain + traced
    count = len(traced)
    root_total = tracer.layer("pipeline")[1] / count
    layer_names = {layer for layer, _parent in tracer.edges} - {"pipeline"}
    attributed = sum(tracer.layer(layer)[2] for layer in layer_names) / count
    metrics = {
        "campaign.in_cell_s": statistics.median(sum(p.cell_seconds) for p in pipelines),
        "campaign.overhead_s_per_cell": statistics.median(p.overhead_s_per_cell for p in pipelines),
        "campaign.cell_s.p50": statistics.median(s for p in pipelines for s in p.cell_seconds),
        "campaign.store_s": tracer.layer("campaign.store")[1] / count,
        "campaign.export_s": tracer.layer("campaign.export")[1] / count,
        "experiments.figures_s": tracer.layer("experiments")[1] / count,
        "experiments.resimulated": sum(p.resimulated for p in pipelines),
        "tracing.overhead_ratio": (statistics.median(p.wall_s for p in traced)
                                   / statistics.median(p.wall_s for p in plain)),
        "trace.wall_s": root_total,
        "trace.attributed_ratio": attributed / root_total if root_total else 0.0,
    }
    metrics.update(model_metrics(traced[0].results))
    return metrics
