"""Hot-path throughput measurement.

One benchmark *cell* is a fresh :class:`~repro.sim.system.System` +
:class:`~repro.sim.engine.SimulationEngine` driven for a fixed record
budget; the metric is trace records simulated per wall-clock second.  Each
cell runs ``repeats`` times and reports the best (minimum-time) repeat —
the standard way to suppress scheduler noise in microbenchmarks.

The default matrix targets the *record-pipeline-bound* regime, which is
what the engine itself controls: single core, small footprint (high
TLB/L1 hit rates), and the sequential-sweep graph workloads of the
paper's throughput-computing suite (``pagerank``, ``tri_count``,
``lsh``).  In miss-bound cells (``mcf``, large scales, random-order
graph workloads) wall time is dominated by the shared miss machinery —
page walks, hierarchy fills, DRAM-cache scheme bookkeeping, channel
timing — which every engine mode pays identically, so engine-level
optimisations are structurally invisible there no matter how fast the
record loop gets.  Both regimes are one ``--workloads``/``--scale`` flag
away; ``python -m repro.perf --compare`` reports per-cell ratios so a
mixed matrix never hides behind a single geomean.

The scheme axis still mixes cost profiles: ``nocache`` is the pipeline
floor (every LLC miss is a single off-package access), ``alloy`` and
``unison`` exercise the tag-probe paths, and ``banshee`` exercises the
tag buffer + frequency-counter machinery.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import platform
import pstats
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.dramcache.variants import available_scheme_names, is_known_scheme
from repro.sim.config import SystemConfig
from repro.sim.engine import DEFAULT_ENGINE_MODE, ENGINE_MODES, SimulationEngine
from repro.sim.results import geometric_mean
from repro.sim.system import System
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload, trace_path, validate_workload_name

#: Default benchmark matrix (see module docstring for the rationale).
DEFAULT_SCHEMES: List[str] = ["nocache", "alloy", "unison", "banshee"]
DEFAULT_WORKLOADS: List[str] = ["pagerank", "tri_count", "lsh"]

#: Default cell parameters (single pipeline-bound core, see module docstring).
DEFAULT_RECORDS_PER_CORE = 20000
DEFAULT_NUM_CORES = 1
DEFAULT_SCALE = 0.01


def validate_matrix(
    schemes: List[str], workloads: List[str], records_per_core: Optional[int] = None
) -> None:
    """Reject unknown scheme/variant or workload names before any cell runs.

    Raises ``ValueError`` listing the available names, so the CLI fails in
    milliseconds with an actionable message instead of deep inside a
    simulation cell.  Workloads may be registry names or ``trace:<path>``
    replays (the file is opened and its header checked here; with
    ``records_per_core`` given, a trace too short for the budget is also
    rejected up front rather than mid-matrix).
    """
    unknown = [name for name in schemes if not is_known_scheme(name)]
    if unknown:
        raise ValueError(
            f"unknown scheme(s)/variant(s) {', '.join(unknown)}; "
            f"available: {', '.join(available_scheme_names())}"
        )
    for name in workloads:
        validate_workload_name(name)
        path = trace_path(name)
        if path is not None and records_per_core is not None:
            from repro.trace.format import read_meta

            available = min(read_meta(path).records_per_core)
            if records_per_core > available:
                raise ValueError(
                    f"trace workload {name!r} holds only {available} records per "
                    f"core, --records {records_per_core} requested"
                )


@dataclass
class BenchCell:
    """Throughput measurement for one scheme × workload cell.

    ``best_seconds`` times the whole engine loop, which pulls records from
    the workload generator inline — so it includes record generation.
    ``generation_seconds`` times a standalone pass over the same record
    budget (fresh workload, no simulation), giving the generation vs.
    simulation split; for ``trace:`` workloads it measures file decode
    instead of generator cost, which is the saving trace capture buys.
    """

    scheme: str
    workload: str
    records: int
    repeats: int
    best_seconds: float
    records_per_sec: float
    instructions: int
    cycles: float
    generation_seconds: float = 0.0
    #: Engine mode the cell was timed with (``scalar`` or ``batch``);
    #: all modes are bit-identical, so cells differ only in wall time.
    engine_mode: str = DEFAULT_ENGINE_MODE
    #: Top cumulative-time functions from an extra profiled (non-timed) run;
    #: ``None`` unless the cell ran with ``profile_top`` set.
    profile: Optional[List[Dict]] = None

    @property
    def simulation_seconds(self) -> float:
        """Best wall time minus the measured record-generation share."""
        return max(self.best_seconds - self.generation_seconds, 0.0)

    @property
    def generation_fraction(self) -> float:
        """Share of the best repeat spent generating (or decoding) records.

        Clamped to [0, 1]: at smoke-sized budgets the standalone generation
        pass can measure marginally slower than the whole best repeat.
        """
        if self.best_seconds <= 0:
            return 0.0
        return min(self.generation_seconds / self.best_seconds, 1.0)

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["simulation_seconds"] = self.simulation_seconds
        payload["generation_fraction"] = self.generation_fraction
        if self.profile is None:
            # Keep the committed BENCH_hotpath.json schema unchanged when
            # profiling is off.
            payload.pop("profile")
        return payload


def _build_config(preset: str, scheme: str, num_cores: int, seed: int) -> SystemConfig:
    if preset == "scaled":
        return SystemConfig.scaled_default(scheme=scheme, num_cores=num_cores, seed=seed)
    if preset == "tiny":
        return SystemConfig.tiny(scheme=scheme, num_cores=num_cores, seed=seed)
    if preset == "paper":
        return SystemConfig.paper_default(scheme=scheme)
    raise ValueError(f"unknown preset {preset!r}; expected scaled, tiny or paper")


def measure_generation(
    workload: Workload, records_per_core: int, engine_mode: str = DEFAULT_ENGINE_MODE
) -> float:
    """Time a pure record-generation pass (no simulation) over the budget.

    Drains each core's stream for ``records_per_core`` records exactly the
    way the engine would — per-record objects for the scalar engine, column
    batches for the batch engine — so the measurement covers generator
    arithmetic (or trace-file decode) plus iteration overhead, and nothing
    else.
    """
    start = time.perf_counter()
    if engine_mode == "scalar":
        for core_id in range(workload.num_cores):
            for _record in itertools.islice(workload.trace(core_id), records_per_core):
                pass
    else:
        for core_id in range(workload.num_cores):
            drained = 0
            for _gaps, addrs, _writes in workload.trace_batches(core_id):
                drained += len(addrs)
                if drained >= records_per_core:
                    break
    return time.perf_counter() - start


def _profile_rows(profiler: cProfile.Profile, top: int) -> List[Dict]:
    """The ``top`` cumulative-time functions of a finished profiler run."""
    stats = pstats.Stats(profiler)
    entries = sorted(stats.stats.items(), key=lambda item: item[1][3], reverse=True)
    rows: List[Dict] = []
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) in entries[:top]:
        where = name if line == 0 else f"{Path(filename).name}:{line}:{name}"
        rows.append({
            "function": where,
            "ncalls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    return rows


def run_cell(
    scheme: str,
    workload_name: str,
    records_per_core: int,
    num_cores: int = DEFAULT_NUM_CORES,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    repeats: int = 3,
    preset: str = "scaled",
    profile_top: Optional[int] = None,
    engine_mode: str = DEFAULT_ENGINE_MODE,
) -> BenchCell:
    """Benchmark one cell; returns the best of ``repeats`` fresh runs.

    Every repeat builds a fresh system so repeats are identical simulations
    (identical record counts and results) that differ only in wall time.
    One extra fresh workload is drained without simulating to measure the
    record-generation share of the cell (see :class:`BenchCell`).

    ``profile_top`` adds one *extra* run wrapped in :mod:`cProfile` after
    the timed repeats (profiling overhead must never touch the reported
    times) and attaches its ``profile_top`` hottest functions by cumulative
    time to the cell.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if engine_mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {engine_mode!r}; choose one of {ENGINE_MODES}")
    best_seconds = float("inf")
    records = 0
    instructions = 0
    cycles = 0.0
    generation_seconds = 0.0
    for repeat in range(repeats):
        config = _build_config(preset, scheme, num_cores, seed)
        # Build the workload at the scheme's page size so page-size variants
        # simulate a consistent system (page table, TLBs and cache agree).
        workload = get_workload(
            workload_name, num_cores, scale=scale, seed=seed,
            page_size=config.dram_cache.page_size,
        )
        if repeat == 0:
            generation_seconds = measure_generation(
                get_workload(
                    workload_name, num_cores, scale=scale, seed=seed,
                    page_size=config.dram_cache.page_size,
                ),
                records_per_core,
                engine_mode=engine_mode,
            )
        engine = SimulationEngine(System(config, workload), mode=engine_mode)
        start = time.perf_counter()
        result = engine.run(records_per_core)
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds = elapsed
        records = engine.records_processed
        instructions = result.instructions
        cycles = result.cycles
    profile = None
    if profile_top:
        config = _build_config(preset, scheme, num_cores, seed)
        workload = get_workload(
            workload_name, num_cores, scale=scale, seed=seed,
            page_size=config.dram_cache.page_size,
        )
        engine = SimulationEngine(System(config, workload), mode=engine_mode)
        profiler = cProfile.Profile()
        profiler.enable()
        engine.run(records_per_core)
        profiler.disable()
        profile = _profile_rows(profiler, profile_top)
    return BenchCell(
        scheme=scheme,
        workload=workload_name,
        records=records,
        repeats=repeats,
        best_seconds=best_seconds,
        records_per_sec=records / best_seconds if best_seconds > 0 else 0.0,
        instructions=instructions,
        cycles=cycles,
        generation_seconds=generation_seconds,
        engine_mode=engine_mode,
        profile=profile,
    )


def aggregate_profile(cells: List[BenchCell], top: int) -> List[Dict]:
    """Merge per-cell profiles into one top-``top`` cumulative-time table.

    Summing cumtime across cells weights each function by how much of the
    whole matrix it cost — the number to look at before optimising.
    """
    merged: Dict[str, Dict] = {}
    for cell in cells:
        for row in cell.profile or []:
            entry = merged.setdefault(
                row["function"],
                {"function": row["function"], "ncalls": 0, "tottime": 0.0, "cumtime": 0.0},
            )
            entry["ncalls"] += row["ncalls"]
            entry["tottime"] = round(entry["tottime"] + row["tottime"], 6)
            entry["cumtime"] = round(entry["cumtime"] + row["cumtime"], 6)
    return sorted(merged.values(), key=lambda row: row["cumtime"], reverse=True)[:top]


def run_benchmark(
    schemes: Optional[List[str]] = None,
    workloads: Optional[List[str]] = None,
    records_per_core: int = DEFAULT_RECORDS_PER_CORE,
    num_cores: int = DEFAULT_NUM_CORES,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    repeats: int = 3,
    preset: str = "scaled",
    progress=None,
    profile_top: Optional[int] = None,
    engine_mode: str = DEFAULT_ENGINE_MODE,
) -> Dict[str, object]:
    """Run the full matrix and return the JSON-ready payload.

    Args:
        progress: optional callback invoked with each finished
            :class:`BenchCell` (the CLI uses it to print a live table).
        profile_top: profile each cell (one extra untimed run under
            cProfile) and add the matrix-wide top-N cumulative-time
            functions to the payload under ``"profile"``.
    """
    schemes = schemes if schemes else list(DEFAULT_SCHEMES)
    workloads = workloads if workloads else list(DEFAULT_WORKLOADS)
    validate_matrix(schemes, workloads, records_per_core=records_per_core)
    cells: List[BenchCell] = []
    started = time.perf_counter()
    for scheme in schemes:
        for workload_name in workloads:
            cell = run_cell(
                scheme,
                workload_name,
                records_per_core,
                num_cores=num_cores,
                scale=scale,
                seed=seed,
                repeats=repeats,
                preset=preset,
                profile_top=profile_top,
                engine_mode=engine_mode,
            )
            cells.append(cell)
            if progress is not None:
                progress(cell)
    total_seconds = time.perf_counter() - started
    # Per-workload generation vs. simulation split, averaged over schemes
    # (generation cost is a property of the workload, not the scheme; the
    # small per-scheme spread is measurement noise).
    workload_split: Dict[str, Dict[str, float]] = {}
    for workload_name in workloads:
        group = [cell for cell in cells if cell.workload == workload_name]
        gen = sum(cell.generation_seconds for cell in group) / len(group)
        best = sum(cell.best_seconds for cell in group) / len(group)
        workload_split[workload_name] = {
            "generation_seconds": gen,
            "simulation_seconds": max(best - gen, 0.0),
            "generation_fraction": min(gen / best, 1.0) if best > 0 else 0.0,
        }
    payload_profile = (
        {"top": profile_top, "functions": aggregate_profile(cells, profile_top)}
        if profile_top else None
    )
    payload = {
        "name": "hotpath",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "params": {
            "preset": preset,
            "records_per_core": records_per_core,
            "num_cores": num_cores,
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "schemes": schemes,
            "workloads": workloads,
            "engine_mode": engine_mode,
        },
        "cells": [cell.to_dict() for cell in cells],
        "workload_time_split": workload_split,
        "aggregate": {
            "geomean_records_per_sec": geometric_mean([cell.records_per_sec for cell in cells]),
            "min_records_per_sec": min((cell.records_per_sec for cell in cells), default=0.0),
            "total_records": sum(cell.records for cell in cells),
            "total_wall_seconds": total_seconds,
        },
    }
    if payload_profile is not None:
        payload["profile"] = payload_profile
    return payload


def write_report(payload: Dict[str, object], path: str) -> None:
    """Write the benchmark payload as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
