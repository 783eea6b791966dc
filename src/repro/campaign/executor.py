"""Cell execution: the per-cell runner and the serial reference executor.

:func:`execute_cell` runs one :class:`~repro.experiments.runner.CampaignCell`;
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
the process boundary pickled over the worker slot's pipe, which preserves
floats exactly.

Observability and liveness: given an :class:`~repro.obs.events.ObsSink`,
every cell emits structured ``cell_start``/``cell_finish``/``cell_error``
events to its JSONL log (one appended line per event, safe across
processes), plus a ``heartbeat`` event every :data:`BEAT_RECORDS`
processed records — what ``python -m repro.campaign status --live`` reads
to show in-flight cells.  In a supervised worker the same beat also goes
over the worker slot's pipe, sink or not: that is what the supervisor's
staleness check listens to.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro import faults
from repro.experiments.runner import CampaignCell
from repro.obs.events import ObsSink
from repro.sim.batch import EngineCursor, RunController
from repro.sim.results import SimulationResults

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: progress callback: (completed_count, total_count, outcome)
ProgressFn = Callable[[int, int, "CellOutcome"], None]

#: Processed-record interval between a running cell's progress beats.
#: Chosen so a healthy engine beats several times a second while a wedged
#: one goes quiet — what the supervisor's staleness check keys off.
BEAT_RECORDS = 20_000


class _ProgressBeat(RunController):
    """Calls ``beat(processed)`` every ``every`` processed records.

    Deliberately not a wall-clock timer thread: beats fire at engine edges,
    so they only come while the simulation advances, and a wedged worker
    goes quiet even though its process is alive.
    """

    def __init__(self, beat: Callable[[int], None], every: int) -> None:
        self.beat = beat
        self.every = every

    def next_stop(self, processed: int) -> Optional[int]:
        return processed + (self.every - processed % self.every or self.every)

    def on_edge(self, cursor: EngineCursor) -> bool:
        self.beat(cursor.processed)
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
    key: str,
    obs: Optional[ObsSink] = None,
    worker: Optional[str] = None,
    cell_index: Optional[int] = None,
    snapshot_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    pipe: Optional["Connection"] = None,
) -> CellOutcome:
    """Run one cell, capturing any exception as an error outcome.

    ``key`` is the cell's store key (``cell.key()``), which the campaign
    computes once per cell before it runs any.  ``obs`` routes structured
    events to the campaign's sink; cell
    start/finish/error and heartbeats are all emitted here, so the serial
    and supervised paths produce the same event stream shape.  ``pipe`` is
    a supervised worker slot's end of its pipe to the supervisor (the
    channel its outcome goes back on).  Every :data:`BEAT_RECORDS` processed
    records the cell beats: a message on ``pipe`` and a ``heartbeat``
    event, whichever of the two exists, so the supervisor can tell a slow
    worker from a wedged one (a ``drop-heartbeat`` fault silences both).

    ``cell_index`` is the cell's position in the campaign's pending order —
    the coordinate fault plans (:mod:`repro.faults`) address cells by.
    ``snapshot_dir``/``snapshot_every`` enable mid-cell auto-snapshots (the
    crash-resume mechanism; see :func:`~repro.experiments.runner.run_simulation`)
    in ``<snapshot_dir>/<key>.json``.
    """
    start = time.perf_counter()
    faults.set_current_cell(cell_index)
    events = obs.event_log() if obs is not None else None
    worker = worker or f"pid-{os.getpid()}"
    describe = cell.describe()
    if events is not None:
        events.emit("cell_start", key=key, cell=describe, worker=worker,
                    label=cell.label, scheme=cell.scheme,
                    workload=cell.workload, seed=cell.seed)

    def beat(processed: int) -> None:
        if faults.heartbeat_dropped():
            return
        if pipe is not None:
            pipe.send(None)
        if events is not None:
            events.emit("heartbeat", worker=worker, state="running", cell=describe,
                        key=key, records=processed)

    controller: Optional[RunController] = None
    if pipe is not None or events is not None:
        controller = _ProgressBeat(beat, BEAT_RECORDS)
    try:
        faults.fire("cell", cell=cell_index)
        snapshot_path = None
        if snapshot_dir is not None:
            snapshot_path = os.path.join(snapshot_dir, f"{key}.json")
        result = cell.run(events=events, snapshot_path=snapshot_path,
                          snapshot_every=snapshot_every, controller=controller)
        wall = time.perf_counter() - start
        if events is not None:
            events.emit("cell_finish", key=key, cell=describe, worker=worker,
                        wall_seconds=round(wall, 6))
        return CellOutcome(cell, key, result, wall_seconds=wall)
    except Exception as exc:  # noqa: BLE001 — per-cell isolation is the point
        detail = traceback.format_exc(limit=8)
        error = f"{type(exc).__name__}: {exc}\n{detail}"
        wall = time.perf_counter() - start
        if events is not None:
            events.emit("cell_error", key=key, cell=describe, worker=worker,
                        error=f"{type(exc).__name__}: {exc}",
                        wall_seconds=round(wall, 6))
        return CellOutcome(cell, key, None, error=error, wall_seconds=wall)


class SerialExecutor:
    """Run cells one after another in this process (the reference path)."""

    def run(
        self,
        cells: Sequence[CampaignCell],
        progress: Optional[ProgressFn] = None,
        obs: Optional[ObsSink] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[CellOutcome]:
        """Run ``cells`` in order; ``keys`` are their ``cell.key()`` values if known."""
        if keys is None:
            keys = [cell.key() for cell in cells]
        outcomes: List[CellOutcome] = []
        for index, cell in enumerate(cells):
            outcome = execute_cell(cell, keys[index], obs=obs, worker="serial",
                                   cell_index=index, snapshot_dir=snapshot_dir,
                                   snapshot_every=snapshot_every)
            outcomes.append(outcome)
            if progress is not None:
                progress(index + 1, len(cells), outcome)
        return outcomes
