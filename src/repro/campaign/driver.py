"""Campaign driver: expand, skip what the store already has, run the rest.

:func:`run_campaign` is the subsystem's main entry point.  It is resumable
by construction: every cell's content-hashed key is checked against the
store first, so re-running a campaign against the same store directory
re-simulates nothing that already completed — including after a crash or a
Ctrl-C halfway through the matrix, and including cells another campaign
happened to share.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.campaign.executor import CellOutcome, ProgressFn, SerialExecutor
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.campaign.supervisor import SupervisedExecutor, SupervisorConfig

if TYPE_CHECKING:
    from repro.obs.events import ObsSink


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    outcomes: List[CellOutcome] = field(default_factory=list)
    #: The run was cut short (SIGINT/SIGTERM); ``outcomes`` holds what
    #: completed before the interrupt and the CLI exits nonzero.
    interrupted: bool = False

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def simulated(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.ok and not o.from_store]

    @property
    def skipped(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.from_store]

    @property
    def errors(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def counts(self) -> Dict[str, int]:
        return {
            "total": self.total,
            "simulated": len(self.simulated),
            "from_store": len(self.skipped),
            "errors": len(self.errors),
        }

    def results(self) -> Dict:
        """(label, workload, seed) -> SimulationResults for successful cells.

        Raises if two cells share a (label, workload, seed) triple — e.g. a
        grid swept over ``page_sizes`` with one scheme label — because the
        mapping would silently drop data.  Give swept points distinct labels
        (as ``examples/design_space.py`` does) or iterate ``outcomes``.
        """
        mapping: Dict = {}
        for outcome in self.outcomes:
            if not outcome.ok:
                continue
            key = (outcome.cell.label, outcome.cell.workload, outcome.cell.seed)
            if key in mapping:
                raise ValueError(
                    f"multiple cells share label/workload/seed {key}; use distinct "
                    "scheme labels per sweep point or iterate report.outcomes"
                )
            mapping[key] = outcome.result
        return mapping


def run_campaign(
    spec: CampaignSpec,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    force: bool = False,
    obs: Optional["ObsSink"] = None,
    supervisor: Optional[SupervisorConfig] = None,
    snapshot_every: Optional[int] = None,
) -> CampaignReport:
    """Run (or resume) a campaign.

    Args:
        spec: the campaign to run.
        store: persistent store to resume from and record into; ``None``
            keeps everything in memory (nothing is skipped or persisted).
        workers: >1 runs pending cells under :class:`SupervisedExecutor`
            on that many long-lived worker processes — dead or wedged
            workers are detected, their cells retried, and repeat
            offenders quarantined.
        progress: callback ``(done, total, outcome)``; store hits are
            reported first, then live cells as they complete.
        force: re-simulate even cells the store already holds (the fresh
            result overwrites the stored one).
        obs: optional :class:`~repro.obs.events.ObsSink`; campaign, cell,
            heartbeat and run events land in its JSONL log (what
            ``status --live`` reads).
        supervisor: retry/backoff/quarantine knobs for the supervised
            parallel path (``None`` uses :class:`SupervisorConfig` defaults;
            ``spec.cell_timeout_seconds`` fills an unset ``cell_timeout``).
        snapshot_every: emit a mid-cell auto-snapshot every N processed
            records into ``<store>/obs/autosnapshots`` so a killed campaign
            resumes mid-cell; needs a ``store``, ``None`` disables.

    A SIGINT/SIGTERM mid-run does not lose completed work: every finished
    cell is already persisted, the report comes back with
    ``interrupted=True`` holding those outcomes, and the event log gets a
    ``campaign_end`` with ``status="interrupted"``.

    Cells that expand to the same content key (an axis value equal to the
    preset default, or overlapping grids) are simulated once; the extra
    cells share the result and are reported as store hits.
    """
    if snapshot_every is not None and snapshot_every <= 0:
        raise ValueError("snapshot_every must be positive (or None to disable)")
    if snapshot_every is not None and store is None:
        raise ValueError("snapshot_every requires a store (snapshots live under <store>/obs)")
    cells = spec.cells()
    total = len(cells)
    outcomes_by_index: Dict[int, CellOutcome] = {}
    pending: List[int] = []
    first_pending_by_key: Dict[str, int] = {}
    duplicates: List[int] = []
    done = 0

    keys = [cell.key() for cell in cells]
    for index, cell in enumerate(cells):
        key = keys[index]
        stored = store.get(key) if (store is not None and not force) else None
        if stored is not None:
            outcome = CellOutcome(cell, key, stored, from_store=True)
            outcomes_by_index[index] = outcome
            done += 1
            if progress is not None:
                progress(done, total, outcome)
        elif key in first_pending_by_key:
            # Two sweep points expanded to the same content key (e.g. an axis
            # value equal to the preset default): simulate once, share the
            # result.
            duplicates.append(index)
        else:
            first_pending_by_key[key] = index
            pending.append(index)

    executor: Union[SerialExecutor, SupervisedExecutor]
    if workers > 1:
        config = supervisor if supervisor is not None else SupervisorConfig()
        if config.cell_timeout is None and spec.cell_timeout_seconds is not None:
            config = dataclasses.replace(config, cell_timeout=spec.cell_timeout_seconds)
        executor = SupervisedExecutor(workers, config=config)
    else:
        executor = SerialExecutor()
    snapshot_dir = None
    if snapshot_every is not None and store is not None:
        snapshot_dir = str(Path(store.directory) / "obs" / "autosnapshots")
    events = obs.event_log() if obs is not None else None
    if events is not None:
        events.emit(
            "campaign_start",
            name=spec.name,
            cells=total,
            pending=len(pending),
            from_store=done,
            workers=workers,
        )

    def on_progress(_done: int, _total: int, outcome: CellOutcome) -> None:
        nonlocal done
        done += 1
        # Persist as each cell completes (not after the batch) so a crash or
        # Ctrl-C mid-campaign loses at most the in-flight cells.
        if store is not None and outcome.ok:
            store.put(outcome.key, outcome.result, meta=outcome.cell.meta())
        elif store is not None and outcome.error is not None:
            # Failures persist too: status reports them, the next run
            # retries them (the store reads errored keys as absent) —
            # except quarantined cells, which are flagged ``poisoned``.
            store.put_error(outcome.key, outcome.error, meta=outcome.cell.meta(),
                            poisoned=outcome.quarantined)
        # Record immediately (not just after the batch) so an interrupt
        # mid-campaign still reports everything that finished.
        outcomes_by_index[first_pending_by_key[outcome.key]] = outcome
        if progress is not None:
            progress(done, total, outcome)

    interrupted = False
    try:
        executed = executor.run([cells[i] for i in pending], progress=on_progress, obs=obs,
                                snapshot_dir=snapshot_dir, snapshot_every=snapshot_every,
                                keys=[keys[i] for i in pending])
    except KeyboardInterrupt:
        # Completed cells were persisted and recorded by on_progress; the
        # in-flight ones resume from store (and mid-cell snapshots) next run.
        interrupted = True
    else:
        if len(executed) != len(pending):
            raise RuntimeError(
                f"executor returned {len(executed)} outcomes for {len(pending)} cells"
            )
        for index, outcome in zip(pending, executed):
            outcomes_by_index[index] = outcome
    for index in duplicates:
        cell = cells[index]
        key = keys[index]
        source = outcomes_by_index.get(first_pending_by_key[key])
        if source is None:
            continue
        outcome = CellOutcome(cell, key, source.result, error=source.error, from_store=source.ok)
        outcomes_by_index[index] = outcome
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    report = CampaignReport(spec=spec, interrupted=interrupted)
    report.outcomes = [outcomes_by_index[i] for i in range(total) if i in outcomes_by_index]
    if events is not None:
        events.emit("campaign_end", name=spec.name,
                    status="interrupted" if interrupted else "completed",
                    **report.counts())
    return report
