"""Simulation cells: what one simulation is, how it runs, where its result lives.

A :class:`CampaignCell` is one simulation: a configuration, a registered
workload and its run parameters.  The cell owns its content-hashed store
key (:meth:`CampaignCell.key`), the metadata stored next to its result
(:meth:`CampaignCell.meta`) and how it runs (:meth:`CampaignCell.run`,
which calls :func:`run_simulation`).  Campaigns expand cells from a spec
(:mod:`repro.campaign.spec`); the figure functions build theirs directly.

Several figures of the paper share the same underlying simulations (the
speedup, in-package-traffic and off-package-traffic figures all come from one
workload x scheme matrix).  :class:`ResultCache` memoises cell results within
one process so that the benchmark modules can each rebuild their figure
without re-running shared simulations.

A cache can additionally be backed by a persistent
:class:`repro.campaign.store.ResultStore` (any object supporting ``get(key)``,
``put(key, result)`` and ``in``), in which case results survive the process: lookups
fall through to the store and fresh results are written through to it.  Both
layers share the :meth:`CampaignCell.key` keyspace, so figures can be
rebuilt from a campaign's store without re-simulating anything.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.sim.config import SystemConfig, canonical_json, config_hash
from repro.sim.batch import ControllerChain, RunController
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResults
from repro.sim.system import System
from repro.workloads.registry import get_workload


#: Fraction of each core's trace used to warm the caches before measurement.
DEFAULT_WARMUP_FRACTION = 0.5


@dataclass
class CampaignCell:
    """One fully resolved simulation: everything a worker needs to run it."""

    label: str
    scheme: str
    workload: str
    seed: int
    records_per_core: int
    scale: float
    warmup_fraction: float
    config: SystemConfig
    #: Snapshot interval (records) for the obs timeline; None disables it.
    timeline_interval: Optional[int] = None
    #: Latency-histogram bucket edges for the timeline; None keeps defaults.
    timeline_bounds: Optional[Tuple[float, ...]] = None
    #: Page size the workload is built with; None means ``config.dram_cache.page_size``.
    page_size: Optional[int] = None

    def _page_size(self) -> int:
        return self.page_size if self.page_size is not None else self.config.dram_cache.page_size

    def key(self) -> str:
        """Content-hashed store key of this cell.

        The key covers everything that determines a simulation's outcome: the
        full configuration (via :func:`repro.sim.config.config_hash`), the
        workload name and its build parameters (``scale``, ``seed``,
        ``page_size``), the trace length and the warmup fraction.  It is stable
        across processes and interpreter runs, which is what makes the campaign
        result store resumable.

        ``timeline_interval`` (and ``timeline_bounds``, the latency histogram
        bucket edges) does not change simulation outcomes, but it does change
        the stored *payload* (a cell run with an observer carries its
        timeline), so it participates in the key — only when set, keeping every
        pre-existing store key valid.
        """
        fields = {
            "config": config_hash(self.config),
            "workload": self.workload,
            "records_per_core": self.records_per_core,
            "scale": self.scale,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "page_size": self._page_size(),
        }
        if self.timeline_interval is not None:
            fields["timeline_interval"] = self.timeline_interval
        if self.timeline_bounds is not None:
            fields["timeline_bounds"] = [float(bound) for bound in self.timeline_bounds]
        payload = canonical_json(fields)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human label for progress lines, e.g. ``banshee/gcc seed=1``."""
        text = f"{self.label}/{self.workload} seed={self.seed}"
        if self.label != self.scheme:
            text = f"{self.label} ({self.scheme})/{self.workload} seed={self.seed}"
        return text

    def meta(self) -> Dict[str, object]:
        """Store metadata: the sweep coordinates stored next to the result.

        Keeps store records self-describing — ``status``/``export`` group and
        label rows from this — whether a campaign or a figure function's
        write-through cache stored the result.
        """
        dram_cache = self.config.dram_cache
        meta: Dict[str, object] = {}
        if self.timeline_interval is not None:
            meta["timeline_interval"] = self.timeline_interval
        if self.timeline_bounds is not None:
            meta["timeline_bounds"] = [float(bound) for bound in self.timeline_bounds]
        return {
            **meta,
            "label": self.label,
            "scheme": dram_cache.scheme,
            "workload": self.workload,
            "seed": self.seed,
            "records_per_core": self.records_per_core,
            "scale": self.scale,
            "warmup_fraction": self.warmup_fraction,
            "num_cores": self.config.num_cores,
            "page_size": self._page_size(),
            "cache_size": self.config.in_package_dram.capacity_bytes,
            "replacement_policy": dram_cache.banshee_policy,
            "sampling_coefficient": dram_cache.sampling_coefficient,
            "config_hash": config_hash(self.config),
        }

    def run(self, **extras) -> SimulationResults:
        """Simulate this cell; ``extras`` are further :func:`run_simulation` arguments."""
        return run_simulation(
            self.config,
            workload_name=self.workload,
            records_per_core=self.records_per_core,
            scale=self.scale,
            seed=self.seed,
            page_size=self.page_size,
            warmup_fraction=self.warmup_fraction,
            timeline_interval=self.timeline_interval,
            timeline_bounds=self.timeline_bounds,
            **extras,
        )


class ResultCache:
    """Memoises cell results under their :meth:`CampaignCell.key`.

    ``store`` is an optional persistent backing layer sharing the same
    keyspace: misses fall through to it and fresh results are written back.
    """

    def __init__(self, store=None) -> None:
        self._results: Dict[str, SimulationResults] = {}
        self._store = store
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    def result(self, cell: CampaignCell) -> SimulationResults:
        """``cell``'s result: from memory, else the store, else simulated and put."""
        key = cell.key()
        result = self.get(key)
        if result is None:
            result = cell.run()
            self.put(key, result, meta=cell.meta())
        return result

    def get(self, key: str) -> Optional[SimulationResults]:
        result = self._results.get(key)
        if result is None and self._store is not None:
            result = self._store.get(key)
            if result is not None:
                self.store_hits += 1
                self._results[key] = result
        if result is not None:
            self.hits += 1
        else:
            self.misses += 1
        return result

    def put(self, key: str, result: SimulationResults, meta: Optional[Dict] = None) -> None:
        self._results[key] = result
        if self._store is not None and key not in self._store:
            self._store.put(key, result, meta=meta)

    def __len__(self) -> int:
        return len(self._results)


#: Process-wide cache shared by the benchmark modules.
GLOBAL_CACHE = ResultCache()


class _AutoSnapshotter(RunController):
    """Run controller that saves a resume snapshot every N processed records.

    Each save atomically overwrites ``path``, so the file always holds the
    *latest* complete snapshot: a worker SIGKILLed mid-cell loses at most
    one interval, and the retry (or a whole re-run of the campaign)
    restores the snapshot and continues bit-identically — snapshots cut
    between two records, exactly where the engine's own run cuts land.
    """

    def __init__(self, every: int, path: str, workload_meta: Dict[str, object],
                 events=None) -> None:
        self.every = every
        self.path = path
        self.workload_meta = workload_meta
        self.events = events
        self.saved = 0

    def next_stop(self, processed: int) -> Optional[int]:
        return processed + (self.every - processed % self.every or self.every)

    def on_edge(self, cursor) -> bool:
        from repro.obs.snapshot import capture_cursor

        capture_cursor(cursor, workload_meta=self.workload_meta).save(self.path)
        self.saved += 1
        if self.events is not None:
            self.events.emit("snapshot_saved", path=self.path,
                             records=cursor.processed, auto=True)
        return False


class _FaultEdges(RunController):
    """Fires the fault injector's ``records`` site at the planned counts."""

    def __init__(self, injector, cell: Optional[int], triggers: List[int]) -> None:
        self.injector = injector
        self.cell = cell
        self.triggers = triggers  # ascending; consumed from the front

    def next_stop(self, processed: int) -> Optional[int]:
        return self.triggers[0] if self.triggers else None

    def on_edge(self, cursor) -> bool:
        while self.triggers and cursor.processed >= self.triggers[0]:
            self.triggers.pop(0)
        self.injector.fire("records", cell=self.cell, records=cursor.processed)
        return False


def run_simulation(
    config: SystemConfig,
    workload_name: str,
    records_per_core: int = 20_000,
    scale: float = 1.0,
    seed: int = 1,
    page_size: Optional[int] = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    timeline_interval: Optional[int] = None,
    timeline_bounds: Optional[Sequence[float]] = None,
    events=None,
    snapshot_path: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    controller: Optional[RunController] = None,
    engine_mode: Optional[str] = None,
) -> SimulationResults:
    """Run one simulation of the registered workload ``workload_name``.

    The workload is built from (``workload_name``, ``scale``, ``seed``,
    ``page_size``; default: the config's page size).  ``warmup_fraction`` of
    each core's records is executed before the measurement window opens
    (statistics cover only the remainder).

    ``timeline_interval`` attaches a
    :class:`~repro.obs.timeline.TimelineObserver` snapshotting windowed
    metric deltas every that many records (the timeline rides along on
    ``result.timeline``); ``timeline_bounds`` overrides its
    latency-histogram bucket edges.  ``events`` is an optional
    :class:`~repro.obs.events.EventLog` for the engine's run events.

    ``snapshot_path`` + ``snapshot_every`` enable **mid-cell auto-snapshots**:
    every ``snapshot_every`` processed records the full engine state is
    saved (atomically, latest wins) to ``snapshot_path`` (a campaign names
    it ``<snapshot dir>/<cell key>.json``).  If that file already exists
    when the run starts — a worker was killed mid-cell, or a whole campaign
    was killed and re-run — the engine restores it and continues, producing
    results bit-identical to the uninterrupted run; the file is removed
    once the run completes.  Timeline runs bypass snapshotting (their
    timeline must cover every window from record zero).

    ``controller`` attaches an additional
    :class:`~repro.sim.batch.RunController`; a
    :class:`~repro.sim.batch.ControllerChain` runs it first, then the
    auto-snapshotter and the fault injector, each at its own stops.  ``engine_mode`` overrides the engine
    mode (default: the ``REPRO_ENGINE_MODE`` environment variable, else the
    engine's default) — results are bit-identical in every mode.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if timeline_bounds is not None and timeline_interval is None:
        raise ValueError("timeline_bounds requires timeline_interval")
    if snapshot_every is not None and snapshot_every <= 0:
        raise ValueError("snapshot_every must be positive (or None to disable)")
    if snapshot_every is not None and snapshot_path is None:
        raise ValueError("snapshot_every requires snapshot_path")
    if engine_mode is None:
        engine_mode = os.environ.get("REPRO_ENGINE_MODE") or None
    warmup_records = int(records_per_core * warmup_fraction)

    observer = None
    if timeline_interval is not None:
        from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS
        from repro.obs.timeline import TimelineObserver

        bounds = timeline_bounds if timeline_bounds is not None else DEFAULT_LATENCY_BOUNDS
        observer = TimelineObserver(timeline_interval, latency_bounds=bounds)

    effective_page_size = page_size if page_size is not None else config.dram_cache.page_size
    built = get_workload(
        workload_name, config.num_cores, scale=scale, seed=seed, page_size=effective_page_size
    )
    system = System(config, built)
    engine = SimulationEngine(system, mode=engine_mode)
    workload_meta = {
        "name": workload_name, "num_cores": config.num_cores,
        "scale": scale, "seed": seed, "page_size": effective_page_size,
    }

    # Mid-cell auto-snapshots: restore a leftover snapshot (a crashed
    # attempt's progress) and keep saving fresh ones as this run advances.
    snapshotter: Optional[_AutoSnapshotter] = None
    if snapshot_path is not None and snapshot_every is not None and timeline_interval is None:
        resumed_mid_cell = False
        if os.path.exists(snapshot_path):
            from repro.obs.snapshot import EngineSnapshot

            try:
                engine.restore(EngineSnapshot.load(snapshot_path))
                resumed_mid_cell = True
            except (ValueError, KeyError, OSError):
                # A stale or truncated snapshot is a fresh start, not an
                # error; this run overwrites it at the next interval.
                resumed_mid_cell = False
        if resumed_mid_cell and events is not None:
            events.emit("snapshot_restored", path=snapshot_path,
                        workload=workload_name, seed=seed)
        snapshotter = _AutoSnapshotter(snapshot_every, snapshot_path,
                                       workload_meta, events=events)

    # Deterministic fault injection (chaos runs / tests only): fire the
    # planned ``records=`` triggers from controller edges, after any
    # snapshot scheduled at the same edge has been saved.
    fault_edges = None
    injector = faults.active_injector()
    if injector is not None:
        triggers = injector.record_triggers(faults.current_cell())
        if triggers:
            fault_edges = _FaultEdges(injector, faults.current_cell(), triggers)

    result = engine.run(
        records_per_core, warmup_records_per_core=warmup_records,
        observer=observer, events=events,
        controller=ControllerChain([controller, snapshotter, fault_edges]),
    )
    if snapshotter is not None:
        # The run completed; its resume point is spent.  Leaving it would
        # make the *next* identical run resume at the end and skip the cell.
        try:
            os.remove(snapshotter.path)
        except OSError:
            pass
    return result
