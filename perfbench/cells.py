"""The simulation workloads: fixed batches of (program, scheme) cells.

A *cell* is one simulation of one program under one DRAM-cache scheme at
the benchmark seed, and is the benchmark's unit of operation.  A *round*
runs a workload's whole batch of cells back to back, each on a freshly
built ``System`` (closed loop, one client, no worker processes).  The
timed phase repeats rounds until the time budget is spent.  Each cell's
run is timed in equal slices of records, each in reference seconds
(:mod:`perfbench.hostspeed`); throughput is a batch's records over the
sum, for every slice of every cell, of its median across the rounds.

Every cell uses the ``scaled`` preset and the runner's default warmup
fraction (0.5): caches start empty and modelled statistics cover the
post-warmup half only.  The model is not validated against the paper, so
modelled numbers are reported as per-layer counts, never as gated
metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.core.banshee import BansheeCache
from repro.dram.device import DramDevice
from repro.dramcache.alloy import AlloyCache
from repro.dramcache.cache_only import CacheOnly
from repro.dramcache.hma import HmaCache
from repro.dramcache.no_cache import NoCache
from repro.dramcache.tdc import TaglessDramCache
from repro.dramcache.unison import UnisonCache
from repro.experiments.runner import DEFAULT_WARMUP_FRACTION
from repro.memctrl.controller import MemoryControllerSet
from repro.perf.harness import measure_generation
from repro.sim.batch import EngineCursor, RunController
from repro.sim.config import SystemConfig
from repro.sim.engine import DEFAULT_ENGINE_MODE, SimulationEngine
from repro.sim.results import SimulationResults, geometric_mean
from repro.sim.system import System
from repro.vm.page_table import PageTable
from repro.workloads.registry import get_workload

from perfbench.hostspeed import Calibrator, reference_seconds
from perfbench.spans import Target, Tracer, no_span

#: Schemes with a ``model.ipc.<scheme>`` metric.
MODEL_SCHEMES = ("nocache", "alloy", "unison", "banshee")

#: Layers whose self time is the miss path below the SRAM hierarchy.
MISS_PATH_LAYERS = ("memctrl", "dramcache", "dram")


@dataclass(frozen=True)
class SimWorkload:
    """One simulation workload: a program x scheme batch at a fixed size."""

    name: str
    programs: Tuple[str, ...]
    schemes: Tuple[str, ...]
    num_cores: int
    scale: float
    records_per_core: int
    #: Records per core of the scalar-vs-batch prefix check.
    prefix_records_per_core: int
    #: Timed slices per cell run, so that a slice lasts 5-40 ms.
    slices: int

    def cells(self) -> List[Tuple[str, str]]:
        return [(program, scheme) for program in self.programs for scheme in self.schemes]

    def warmup(self, records_per_core: int) -> int:
        return int(records_per_core * DEFAULT_WARMUP_FRACTION)

    def build(self, program: str, scheme: str, seed: int,
              mode: str = DEFAULT_ENGINE_MODE) -> SimulationEngine:
        """Config and variant resolution, generator construction, System assembly."""
        config = SystemConfig.scaled_default(scheme=scheme, num_cores=self.num_cores, seed=seed)
        workload = get_workload(program, self.num_cores, scale=self.scale, seed=seed,
                                page_size=config.dram_cache.page_size)
        return SimulationEngine(System(config, workload), mode=mode)

    def run(self, engine: SimulationEngine, records_per_core: Optional[int] = None,
            controller: Optional[RunController] = None) -> SimulationResults:
        records = records_per_core if records_per_core is not None else self.records_per_core
        return engine.run(records, warmup_records_per_core=self.warmup(records), controller=controller)


class SliceClock(RunController):
    """Times a run in slices of ``step`` processed records.

    At every cut the calibration loop runs, outside the slices' timing, so
    each slice is scaled to reference seconds by the loop runs right
    before and right after it.  The host's speed changes within tens of
    milliseconds, so a calibration around a whole cell (up to 0.8 s)
    would miss much of it.  The engine cuts its runs at these counts and
    nowhere else, so an attached clock changes no simulated result.
    """

    def __init__(self, step: int, calibrator: Calibrator) -> None:
        self.step = step
        self.calibrator = calibrator
        #: Per slice: host seconds and reference seconds.
        self.host_s: List[float] = []
        self.reference_s: List[float] = []
        self._loop = 0.0
        self._start = 0.0

    def start(self) -> None:
        self._loop = self.calibrator.loop_seconds()
        self._start = time.perf_counter()

    def cut(self) -> None:
        host_s = time.perf_counter() - self._start
        loop = self.calibrator.loop_seconds()
        self.host_s.append(host_s)
        self.reference_s.append(reference_seconds(host_s, self._loop, loop))
        self._loop = loop
        self._start = time.perf_counter()

    def next_stop(self, processed: int) -> Optional[int]:
        return (processed // self.step + 1) * self.step

    def on_edge(self, cursor: EngineCursor) -> bool:
        self.cut()
        return False


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    workload.name: workload
    for workload in (
        SimWorkload("hit-path", ("pagerank", "tri_count", "lsh"), ("nocache", "banshee"),
                    num_cores=1, scale=0.01, records_per_core=20000, prefix_records_per_core=4000,
                    slices=4),
        SimWorkload("miss-read", ("mcf", "omnetpp"), MODEL_SCHEMES,
                    num_cores=4, scale=0.1, records_per_core=5000, prefix_records_per_core=1000,
                    slices=20),
        SimWorkload("miss-write", ("lbm",), MODEL_SCHEMES,
                    num_cores=4, scale=0.1, records_per_core=5000, prefix_records_per_core=1000,
                    slices=20),
    )
}


def set_up(spec: SimWorkload, seed: int) -> List[SimulationEngine]:
    """Build every cell of one round (what the set-up probe times)."""
    return [spec.build(program, scheme, seed) for program, scheme in spec.cells()]


def sim_targets() -> List[Target]:
    """The simulator's layer boundaries, wrapped at class level when tracing."""
    targets: List[Target] = [
        (SimulationEngine, "run", "sim"),
        (System, "process_record_cols", "sim.system"),
        (PageTable, "translate", "vm"),
        (CacheHierarchy, "access_reused", "cache"),
        (MemoryControllerSet, "access", "memctrl"),
        (DramDevice, "access_latency", "dram"),
    ]
    for scheme_class in (NoCache, CacheOnly, AlloyCache, UnisonCache, TaglessDramCache,
                         HmaCache, BansheeCache):
        if "access" in scheme_class.__dict__:
            targets.append((scheme_class, "access", "dramcache"))
    return targets


# --------------------------------------------------------------------------- checks


def invariant_problems(result: SimulationResults, measured_records: int) -> List[str]:
    """Broken invariants of one cell's results (empty when the cell is sound)."""
    problems = []
    if result.memory_accesses != measured_records:
        problems.append(f"memory_accesses {result.memory_accesses} != measured records {measured_records}")
    counts: Dict[str, float] = {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "dram_cache_hits": result.dram_cache_hits,
        "dram_cache_misses": result.dram_cache_misses,
        "llc_misses": result.llc_misses,
        "llc_writebacks": result.llc_writebacks,
        "tlb_misses": result.tlb_misses,
        "os_stall_cycles": result.os_stall_cycles,
    }
    for group, values in (("in_traffic_bytes", result.in_traffic_bytes),
                          ("off_traffic_bytes", result.off_traffic_bytes),
                          ("hierarchy_stats", result.hierarchy_stats),
                          ("scheme_stats", result.scheme_stats)):
        for key, value in values.items():
            counts[f"{group}.{key}"] = value
    for core_id, cycles in enumerate(result.per_core_cycles):
        counts[f"per_core_cycles.{core_id}"] = cycles
    problems.extend(f"{name} is negative ({value})" for name, value in counts.items() if value < 0)
    return problems


def identity_digest(result: SimulationResults) -> str:
    """Digest of one cell's simulated results (host timing excluded)."""
    payload = json.dumps(result.identity_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def combined_digest(digests: Iterable[str]) -> str:
    """Digest of a batch: the cell digests in order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def model_metrics(results: Sequence[SimulationResults]) -> Dict[str, float]:
    """Modelled (post-warmup, deterministic) per-layer counts of a batch."""
    accesses = sum(r.memory_accesses for r in results)
    llc_misses = sum(r.llc_misses for r in results)
    instructions = sum(r.instructions for r in results)
    cached = [r for r in results if r.scheme != "nocache"]
    demand = sum(r.dram_cache_hits + r.dram_cache_misses for r in cached)
    metrics = {
        "vm.tlb_miss_ratio": sum(r.tlb_misses for r in results) / accesses if accesses else 0.0,
        "cache.wb_per_llc_miss": sum(r.llc_writebacks for r in results) / llc_misses if llc_misses else 0.0,
        "dramcache.hit_ratio": sum(r.dram_cache_hits for r in cached) / demand if demand else 0.0,
        "dramcache.pte_updates": sum(r.scheme_stats.get("pte_updates", 0) for r in results),
        "dram.in_bytes_per_instr": (sum(sum(r.in_traffic_bytes.values()) for r in results) / instructions
                                    if instructions else 0.0),
        "dram.off_bytes_per_instr": (sum(sum(r.off_traffic_bytes.values()) for r in results) / instructions
                                     if instructions else 0.0),
    }
    for scheme in MODEL_SCHEMES:
        metrics[f"model.ipc.{scheme}"] = geometric_mean([r.ipc for r in results if r.scheme == scheme])
    return metrics


# --------------------------------------------------------------------------- measurement


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    #: The gated throughput estimate: records per host second (reproduce)
    #: or per reference second (the simulation workloads).
    records_per_s: float
    #: Throughput of each timed pass (round or pipeline), for the summary.
    pass_records_per_s: List[float]
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Extra lines for the human-readable summary.
    notes: List[str] = field(default_factory=list)


@dataclass
class Round:
    """One pass over a workload's batch of cells."""

    #: Host seconds inside the cells' spans (set-up and run of every cell).
    wall_s: float = 0.0
    #: Per cell, in batch order: records simulated, engine host seconds
    #: and, in timed rounds, the reference seconds of each slice of the run
    #: (None for a cell that raised), and the results digest.
    cell_records: List[int] = field(default_factory=list)
    cell_seconds: List[Optional[float]] = field(default_factory=list)
    cell_slices: List[Optional[List[float]]] = field(default_factory=list)
    cell_digests: List[Optional[str]] = field(default_factory=list)
    results: List[SimulationResults] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    failed: int = 0

    @property
    def records_per_s(self) -> float:
        timed = [(records, seconds) for records, seconds in zip(self.cell_records, self.cell_seconds)
                 if seconds is not None]
        seconds = sum(seconds for _records, seconds in timed)
        return sum(records for records, _seconds in timed) / seconds if seconds > 0 else 0.0


def median_slices_records_per_s(rounds: Sequence[Round]) -> float:
    """Records of one batch over the sum of every slice's median reference seconds.

    The median over rounds drops the slices whose calibrations missed a
    change of host speed.
    """
    records, seconds = 0, 0.0
    for index in range(len(rounds[0].cell_slices)):
        timed = [r for r in rounds if r.cell_slices[index] is not None]
        if timed:
            records += timed[0].cell_records[index]
            seconds += sum(map(statistics.median, zip(*(r.cell_slices[index] for r in timed))))
    return records / seconds if seconds > 0 else 0.0


def run_round(spec: SimWorkload, seed: int, span: Callable = no_span,
              calibrator: Optional[Calibrator] = None) -> Round:
    """Run every cell of ``spec`` once; failures are recorded, never raised.

    With a ``calibrator`` the round is timed in slices (``cell_slices``);
    its calibration time is left out of ``cell_seconds`` and ``wall_s``.
    """
    outcome = Round()
    runs: List[Tuple[str, str, Optional[SimulationResults]]] = []
    for program, scheme in spec.cells():
        # Every cell starts from a collected heap, as in a fresh campaign
        # worker, so no cell pays for an earlier one's garbage.  Collection
        # stays outside the cell's span.
        gc.collect()
        clock = None
        if calibrator is not None:
            clock = SliceClock(max(1, spec.num_cores * spec.records_per_core // spec.slices), calibrator)
        start = time.perf_counter()
        run_s = 0.0
        try:
            with span("cell"):
                with span("setup"):
                    engine = spec.build(program, scheme, seed)
                run_start = time.perf_counter()
                if clock is not None:
                    clock.start()
                result = spec.run(engine, controller=clock)
                if clock is not None:
                    clock.cut()
                run_s = time.perf_counter() - run_start
        except Exception:  # noqa: BLE001 — a failing cell is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            runs.append((program, scheme, None))
            outcome.cell_records.append(0)
            outcome.cell_seconds.append(None)
            outcome.cell_slices.append(None)
            continue
        finally:
            outcome.wall_s += time.perf_counter() - start
        if clock is not None:
            # Leave the calibration loops out of the host timings.
            outcome.wall_s -= run_s - sum(clock.host_s)
            run_s = sum(clock.host_s)
        runs.append((program, scheme, result))
        outcome.cell_records.append(engine.records_processed)
        outcome.cell_seconds.append(run_s)
        outcome.cell_slices.append(clock.reference_s if clock is not None else None)

    # Checks run outside the cells' spans, so they never count as simulator time.
    measured = spec.num_cores * (spec.records_per_core - spec.warmup(spec.records_per_core))
    for program, scheme, result in runs:
        if result is None:
            outcome.failed += 1
            outcome.problems.append(f"{program}/{scheme} raised")
            outcome.cell_digests.append(None)
            continue
        problems = invariant_problems(result, measured)
        if problems:
            outcome.failed += 1
            outcome.problems.extend(f"{program}/{scheme}: {problem}" for problem in problems)
        outcome.results.append(result)
        outcome.cell_digests.append(identity_digest(result))
    return outcome


def scalar_prefix_problem(spec: SimWorkload, seed: int, program: str, scheme: str) -> Optional[str]:
    """Re-run a short prefix of one cell in the scalar and batch modes; None when equal."""
    prefix = spec.prefix_records_per_core
    runs = {
        mode: spec.run(spec.build(program, scheme, seed, mode=mode), prefix).identity_dict()
        for mode in ("scalar", "batch")
    }
    if runs["scalar"] != runs["batch"]:
        return f"{program}/{scheme}: scalar and batch engines disagree on a {prefix}-record prefix"
    return None


def generation_seconds(spec: SimWorkload, seed: int) -> float:
    """Standalone record-generation time of one round (median of 3 drains)."""
    def once() -> float:
        total = 0.0
        for program in spec.programs:
            workload = get_workload(program, spec.num_cores, scale=spec.scale, seed=seed)
            total += measure_generation(workload, spec.records_per_core) * len(spec.schemes)
        return total

    return statistics.median(once() for _ in range(3))


def measure(spec: SimWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    """Repeat rounds for ``seconds``; traced runs alternate plain and traced rounds."""
    tracer = Tracer() if trace else None
    calibrator = Calibrator()
    # The first round warms lazy imports and caches; it is checked, not timed.
    warmup = run_round(spec, seed)
    plain: List[Round] = []
    traced: List[Round] = []
    deadline = time.perf_counter() + seconds
    while not plain or (tracer is not None and not traced) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            tracer.install(sim_targets())
            try:
                traced.append(run_round(spec, seed, tracer.span))
            finally:
                tracer.remove()
        else:
            plain.append(run_round(spec, seed, calibrator=calibrator))

    rounds = [warmup] + plain + traced
    attempted = len(spec.cells()) * len(rounds)
    failed = sum(r.failed for r in rounds)
    problems = [problem for r in rounds for problem in r.problems]
    # Every round simulates the same cells, so every cell must reproduce the
    # first round's results exactly — traced rounds included (tracing is
    # read-only).
    reference = warmup.cell_digests
    for index, r in enumerate(rounds[1:], start=1):
        for (program, scheme), expected, got in zip(spec.cells(), reference, r.cell_digests):
            if got is not None and got != expected:
                failed += 1
                problems.append(f"round {index}: {program}/{scheme} results differ from the warm-up round")
    check_program, check_scheme = spec.programs[0], spec.schemes[-1]
    attempted += 1
    problem = scalar_prefix_problem(spec, seed, check_program, check_scheme)
    if problem is not None:
        failed += 1
        problems.append(problem)

    outcome = Outcome(
        records_per_s=median_slices_records_per_s(plain),
        pass_records_per_s=[r.records_per_s for r in plain],
        attempted=attempted,
        failed=failed,
        problems=problems,
        digest=combined_digest(d or "-" for d in reference),
        notes=[f"{len(spec.cells())} cells per round: {spec.num_cores} core(s), scale {spec.scale}, "
               f"{spec.records_per_core} records/core, "
               f"scalar-vs-batch prefix checked on {check_program}/{check_scheme}"],
    )
    if tracer is not None:
        outcome.layers = _layer_metrics(tracer, traced, plain, spec, seed)
    return outcome


def _layer_metrics(tracer: Tracer, traced: List[Round], plain: List[Round],
                   spec: SimWorkload, seed: int) -> Dict[str, float]:
    rounds = len(traced)
    records = sum(traced[0].cell_records)

    def calls(layer: str) -> float:
        return tracer.layer(layer)[0] / rounds

    def self_s(layer: str) -> float:
        return tracer.layer(layer)[2] / rounds

    root_total = tracer.layer("cell")[1] / rounds
    layer_names = {layer for layer, _parent in tracer.edges} - {"cell"}
    attributed = sum(self_s(layer) for layer in layer_names)
    dram_calls = calls("dram")
    metrics = {
        "workloads.gen_s": generation_seconds(spec, seed),
        "setup.cell_s": self_s("setup"),
        "sim.self_s": self_s("sim"),
        "sim.fast_path_ratio": 1.0 - calls("sim.system") / records if records else 0.0,
        "sim.system_self_s": self_s("sim.system"),
        "vm.walks": calls("vm"),
        "vm.walk_s": tracer.layer("vm")[1] / rounds,
        "cache.calls": calls("cache"),
        "cache.self_s": self_s("cache"),
        "memctrl.requests": calls("memctrl"),
        "memctrl.self_s": self_s("memctrl"),
        "dramcache.calls": calls("dramcache"),
        "dramcache.self_s": self_s("dramcache"),
        "dram.calls": dram_calls,
        "dram.self_s": self_s("dram"),
        "dram.ns_per_call": self_s("dram") / dram_calls * 1e9 if dram_calls else 0.0,
        "tracing.overhead_ratio": (statistics.median(r.wall_s for r in traced)
                                   / statistics.median(r.wall_s for r in plain)),
        "trace.wall_s": root_total,
        "trace.attributed_ratio": attributed / root_total if root_total else 0.0,
        "trace.miss_path_share": (sum(self_s(layer) for layer in MISS_PATH_LAYERS) / root_total
                                  if root_total else 0.0),
    }
    metrics.update(model_metrics(traced[0].results))
    return metrics
