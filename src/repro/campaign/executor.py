"""Cell execution: the per-cell runner and the serial reference executor.

:func:`execute_cell` runs one :class:`~repro.campaign.spec.CampaignCell`;
:class:`SerialExecutor` runs a list of them in this process and returns
one :class:`CellOutcome` per cell, in input order (the parallel path is
:class:`~repro.campaign.supervisor.SupervisedExecutor`, with the same
contract).  A cell that raises is captured as an error outcome instead of
aborting the campaign, so one bad configuration cannot sink a
thousand-cell overnight run.

Determinism: workloads are rebuilt inside each worker from (name, seed,
scale, page_size), and the simulator is seeded from the cell alone, so the
parallel path produces results bit-identical to the serial path (modulo
``wall_time_seconds``, which measures the host) — including any attached
interval timeline, which is built from simulated state only.  Results cross
the process boundary as ``SimulationResults.to_dict()`` payloads, which
preserve floats exactly.

Observability: given an :class:`~repro.obs.events.ObsSink`, every cell
emits structured ``cell_start``/``cell_finish``/``cell_error``/``heartbeat``
events to its JSONL log (one appended line per event, safe across
processes), and every worker process maintains a heartbeat file in the
sink's heartbeat directory — what ``python -m repro.campaign status
--live`` tails to show in-flight cells.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro import faults
from repro.campaign.spec import CampaignCell
from repro.experiments.runner import run_simulation
from repro.obs.events import ObsSink
from repro.obs.heartbeat import HeartbeatWriter
from repro.sim.batch import RunController
from repro.sim.results import SimulationResults

#: progress callback: (completed_count, total_count, outcome)
ProgressFn = Callable[[int, int, "CellOutcome"], None]

#: Default processed-record interval between mid-cell heartbeat refreshes.
#: Chosen so a healthy engine beats several times a second while a wedged
#: one goes quiet — what the supervisor's staleness check keys off.
BEAT_RECORDS = 20_000


class _ProgressBeat(RunController):
    """Refreshes the worker heartbeat at engine edges (progress-based).

    Deliberately not a wall-clock timer thread: the heartbeat only
    advances when the simulation does, so a wedged worker goes stale even
    though its process is alive.
    """

    def __init__(self, heartbeat: HeartbeatWriter, every: int,
                 cell: str, key: str) -> None:
        self.heartbeat = heartbeat
        self.every = every
        self.cell = cell
        self.key = key

    def next_stop(self, processed: int) -> Optional[int]:
        return processed + (self.every - processed % self.every or self.every)

    def on_edge(self, cursor: object) -> bool:
        self.heartbeat.beat(state="running", cell=self.cell, key=self.key)
        return False


@dataclass
class CellOutcome:
    """What happened to one cell: a result, a stored hit, or an error."""

    cell: CampaignCell
    key: str
    result: Optional[SimulationResults]
    error: Optional[str] = None
    wall_seconds: float = 0.0
    from_store: bool = False
    #: The supervisor exhausted this cell's retry budget (stored as a
    #: ``poisoned`` error record so one bad config cannot sink the run).
    quarantined: bool = False
    #: 1-based attempt number that produced this outcome (supervisor path).
    attempt: int = 1

    @property
    def ok(self) -> bool:
        return self.result is not None


def execute_cell(
    cell: CampaignCell,
    obs: Optional[ObsSink] = None,
    worker: Optional[str] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    checkpoint_dir: Optional[str] = None,
    cell_index: Optional[int] = None,
    snapshot_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    beat_records: int = BEAT_RECORDS,
) -> CellOutcome:
    """Run one cell, capturing any exception as an error outcome.

    ``obs`` routes structured events (and, via ``heartbeat`` or a
    per-process writer, liveness updates) to the campaign's sink; all four
    of cell start/finish/error and heartbeats are emitted here so the
    serial and parallel paths produce the same event stream shape.
    ``checkpoint_dir`` enables shared warmup checkpoints (see
    :func:`repro.experiments.runner.run_simulation`); concurrent workers
    writing the same checkpoint are safe — snapshot saves are atomic and
    the content is identical.

    ``cell_index`` is the cell's position in the campaign's pending order —
    the coordinate fault plans (:mod:`repro.faults`) address cells by.
    ``snapshot_dir``/``snapshot_every`` enable mid-cell auto-snapshots (the
    crash-resume mechanism; see :func:`run_simulation`), and a heartbeat is
    refreshed every ``beat_records`` processed records so the supervisor
    can tell a slow worker from a wedged one.
    """
    start = time.perf_counter()
    faults.set_current_cell(cell_index)
    key = cell.key()
    events = obs.event_log() if obs is not None else None
    worker = worker or f"pid-{os.getpid()}"
    if heartbeat is None and obs is not None:
        heartbeat = obs.heartbeat_writer(worker)
    describe = cell.describe()
    if heartbeat is not None:
        heartbeat.beat(state="running", cell=describe, key=key)
    if events is not None:
        events.emit("cell_start", key=key, cell=describe, worker=worker,
                    label=cell.label, scheme=cell.scheme,
                    workload=cell.workload, seed=cell.seed)
        events.emit("heartbeat", worker=worker, state="running", key=key)
    controller: Optional[RunController] = None
    if heartbeat is not None and beat_records > 0:
        controller = _ProgressBeat(heartbeat, beat_records, describe, key)
    try:
        faults.fire("cell", cell=cell_index)
        result = run_simulation(
            cell.config,
            workload_name=cell.workload,
            records_per_core=cell.records_per_core,
            scale=cell.scale,
            seed=cell.seed,
            page_size=cell.page_size,
            warmup_fraction=cell.warmup_fraction,
            timeline_interval=cell.timeline_interval,
            timeline_bounds=cell.timeline_bounds,
            events=events,
            checkpoint_dir=checkpoint_dir,
            snapshot_dir=snapshot_dir,
            snapshot_every=snapshot_every,
            controller=controller,
        )
        wall = time.perf_counter() - start
        if heartbeat is not None:
            heartbeat.finished_cell()
            heartbeat.beat(state="idle")
        if events is not None:
            events.emit("cell_finish", key=key, cell=describe, worker=worker,
                        wall_seconds=round(wall, 6))
            events.emit("heartbeat", worker=worker, state="idle", key=key)
        return CellOutcome(cell, key, result, wall_seconds=wall)
    except Exception as exc:  # noqa: BLE001 — per-cell isolation is the point
        detail = traceback.format_exc(limit=8)
        error = f"{type(exc).__name__}: {exc}\n{detail}"
        wall = time.perf_counter() - start
        if heartbeat is not None:
            heartbeat.beat(state="idle")
        if events is not None:
            events.emit("cell_error", key=key, cell=describe, worker=worker,
                        error=f"{type(exc).__name__}: {exc}",
                        wall_seconds=round(wall, 6))
            events.emit("heartbeat", worker=worker, state="idle", key=key)
        return CellOutcome(cell, key, None, error=error, wall_seconds=wall)


class SerialExecutor:
    """Run cells one after another in this process (the reference path)."""

    def run(
        self,
        cells: Sequence[CampaignCell],
        progress: Optional[ProgressFn] = None,
        obs: Optional[ObsSink] = None,
        checkpoint_dir: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
    ) -> List[CellOutcome]:
        heartbeat = obs.heartbeat_writer("serial") if obs is not None else None
        outcomes: List[CellOutcome] = []
        try:
            for index, cell in enumerate(cells):
                outcome = execute_cell(cell, obs=obs, worker="serial", heartbeat=heartbeat,
                                       checkpoint_dir=checkpoint_dir, cell_index=index,
                                       snapshot_dir=snapshot_dir, snapshot_every=snapshot_every)
                outcomes.append(outcome)
                if progress is not None:
                    progress(index + 1, len(cells), outcome)
        finally:
            if heartbeat is not None:
                heartbeat.clear()
        return outcomes
