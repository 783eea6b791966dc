"""The simulation engine.

The engine drives one :class:`repro.sim.system.System` with the per-core
trace streams of a workload.  Cores are interleaved in global time order:
the core with the smallest local clock always executes its next trace record
first.  This is what makes DRAM channel contention meaningful — a core that
is stalled on a congested channel falls behind, and the other cores' requests
arrive at the channels in front of its next one.

Two engine modes drive that identical interleaving:

* ``"scalar"`` — the reference loop: one record per heap pop, read from the
  same column buffers and scheduled through the same heap set-up and resume
  fast-forward as the batch engine.
* ``"batch"`` (default) — column batches and run-length scheduling
  (:mod:`repro.sim.batch`): a run of the minimum-clock core that starts on
  a TLB+L1 hit executes without heap traffic, its hits on an inlined fast
  path; while other cores are live, a run that starts on any other record
  is that one record, stepped as in the scalar loop.

Both modes are bit-identical: same record order, same arithmetic, same
results (the hot-path golden tests pin this for every scheme).

Every run is cut the same way in both modes: the warmup edge, the timeline
observer's windows, the caller's controller and the ``max_total_records``
budget are members of one :class:`~repro.sim.batch.RunEdges` chain, and each
loop has a single ``processed >= next_stop`` compare and a single edge call
(see :mod:`repro.sim.batch` for the dispatch order and how to write a
controller).
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.sim.batch import (
    BatchRunner,
    EngineCursor,
    RunBudget,
    RunController,
    RunEdges,
    WarmupEdge,
    _init_schedule,
)
from repro.sim.results import SimulationResults
from repro.sim.system import System

if TYPE_CHECKING:
    from repro.obs.events import EventLog
    from repro.obs.snapshot import EngineSnapshot
    from repro.obs.timeline import TimelineObserver

__all__ = [
    "DEFAULT_ENGINE_MODE",
    "ENGINE_MODES",
    "EngineCursor",
    "RunController",
    "SimulationEngine",
]

#: Engine modes accepted by :class:`SimulationEngine`.
ENGINE_MODES = ("scalar", "batch")

#: Mode used when none is requested.
DEFAULT_ENGINE_MODE = "batch"


class SimulationEngine:
    """Trace-driven multicore simulation loop."""

    def __init__(self, system: System, mode: Optional[str] = None) -> None:
        if mode is None:
            mode = DEFAULT_ENGINE_MODE
        if mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {mode!r}; choose one of {ENGINE_MODES}")
        self.system = system
        self.mode = mode
        #: Records processed by the most recent :meth:`run` (reset per run).
        #: After a :meth:`restore`, this includes the restored prefix — it is
        #: the run-level count, matching what the uninterrupted run reports.
        self.records_processed = 0
        #: Records processed across every :meth:`run` on this engine.
        self.total_records_processed = 0
        # Progress loaded by restore(); consumed by the next run().
        self._resume: Optional[Dict[str, Any]] = None

    def restore(self, snapshot: "EngineSnapshot") -> None:
        """Replace ``self.system`` with the snapshot's; the next :meth:`run` resumes it.

        The kind, version, config digest (against the live configuration),
        source digest and core count are all checked before anything
        changes, so a rejected snapshot (``ValueError``) leaves the engine
        untouched.  Then the unpickled system replaces ``self.system``, with
        the live workload re-attached — it must be the one the snapshot was
        taken from.  The next ``run()`` call — with the same
        ``max_records_per_core``/warmup/budget arguments as the original —
        fast-forwards each core's stream by the snapshot's consumed counts
        and continues bit-identically to the uninterrupted run, in every
        engine mode.  A snapshot taken inside warmup needs a warmup edge
        after the records it already processed, or ``run`` raises
        ``ValueError`` and leaves the restored state in place.
        """
        system = snapshot.load_system(self.system.config)
        progress = snapshot.progress
        consumed = [int(count) for count in progress["consumed_per_core"]]
        num_cores = self.system.config.num_cores
        if len(consumed) != num_cores:
            raise ValueError(
                f"snapshot covers {len(consumed)} cores, system has {num_cores}"
            )
        resume: Dict[str, Any] = {
            "processed": int(progress["processed"]),
            "consumed_per_core": consumed,
            "measurement_started": bool(progress["measurement_started"]),
        }
        system.workload = self.system.workload
        self.system = system
        self._resume = resume

    def run(
        self,
        max_records_per_core: int,
        max_total_records: Optional[int] = None,
        warmup_records_per_core: int = 0,
        observer: Optional["TimelineObserver"] = None,
        events: Optional["EventLog"] = None,
        controller: Optional[RunController] = None,
    ) -> SimulationResults:
        """Run the simulation and return its results.

        Args:
            max_records_per_core: trace records to execute on each core
                (including warmup).  All schemes compared on a workload must
                use the same value so their instruction counts match.
            max_total_records: optional global cap (safety valve for tests).
            warmup_records_per_core: records per core executed before the
                measurement window starts; statistics are reported for the
                post-warmup portion only.
            observer: optional :class:`~repro.obs.timeline.TimelineObserver`;
                when given, windowed metric deltas are snapshotted every
                ``observer.interval`` records (with a boundary forced at the
                warmup edge) and the resulting timeline is attached to
                ``results.timeline``.  Results are bit-identical either way.
            events: optional :class:`~repro.obs.events.EventLog`; run
                start/end and the warmup boundary are emitted as structured
                events (never from inside the per-record loop).
            controller: optional :class:`~repro.sim.batch.RunController`
                (several: a :class:`~repro.sim.batch.ControllerChain`);
                the run is cut at the controller's requested processed
                counts and ``on_edge`` fires there with an
                :class:`~repro.sim.batch.EngineCursor` (snapshot, early
                stop).

        The warmup edge, the observer, the controller and the budget form one
        :class:`~repro.sim.batch.RunEdges` chain, dispatched in that order.
        """
        if max_records_per_core <= 0:
            raise ValueError("max_records_per_core must be positive")
        if not 0 <= warmup_records_per_core < max_records_per_core:
            raise ValueError(
                f"warmup_records_per_core must be in [0, max_records_per_core), "
                f"got {warmup_records_per_core} with max_records_per_core={max_records_per_core}"
            )
        if max_total_records is not None and max_total_records <= 0:
            raise ValueError("max_total_records must be positive (or None for no cap)")
        # Wall time is reported, never simulated: it feeds the results'
        # wall_time_seconds diagnostic only.  # repro: allow[determinism]
        start_time = time.perf_counter()
        system = self.system
        workload = system.workload
        num_cores = system.config.num_cores
        # Resume state loaded by restore(): the run continues from the
        # snapshot's processed counts (with the same run arguments as the
        # original run, for bit-identity).  Checked before anything is
        # emitted or cleared, so a rejected call changes nothing.
        resume = self._resume
        measurement_started = warmup_records_per_core <= 0
        start_record = 0
        if resume is not None:
            start_record = int(resume["processed"])
            for core_id, count in enumerate(resume["consumed_per_core"]):
                if count > max_records_per_core:
                    raise ValueError(
                        f"snapshot consumed {count} records on core {core_id}, "
                        f"beyond max_records_per_core={max_records_per_core}"
                    )
            measurement_started = bool(resume["measurement_started"])
        warmup_end = None if measurement_started else num_cores * warmup_records_per_core
        if warmup_end is not None and warmup_end <= start_record:
            raise ValueError(
                f"snapshot was taken inside warmup at record {start_record}, but "
                f"warmup_records_per_core={warmup_records_per_core} puts the warmup "
                "edge at or before it; resume with the original run's warmup"
            )
        self._resume = None
        if events is not None:
            events.emit(
                "run_start",
                workload=workload.name,
                scheme=system.scheme.name,
                num_cores=num_cores,
                records_per_core=max_records_per_core,
                warmup_records_per_core=warmup_records_per_core,
            )

        # The per-run counter must start at zero: a reused engine otherwise
        # trips the warmup threshold immediately and burns the whole
        # ``max_total_records`` budget before processing a single record.
        # The cumulative count lives in ``total_records_processed``.
        self.records_processed = 0

        if observer is not None:
            observer.begin(system, warmup_end=warmup_end, start_record=start_record)
        edges = RunEdges(system, [
            WarmupEdge(warmup_end, events) if warmup_end is not None else None,
            observer,
            controller,
            RunBudget(max_total_records) if max_total_records is not None else None,
        ], start_record, measurement_started)

        if self.mode == "scalar":
            processed, consumed = self._run_scalar(max_records_per_core, edges, resume)
        else:
            processed, consumed = BatchRunner(system).run(max_records_per_core, edges, resume)
        edges.finish(processed, consumed)

        self.records_processed = processed
        self.total_records_processed += processed
        system.finalize()
        elapsed = time.perf_counter() - start_time  # repro: allow[determinism]
        results = system.collect_results(wall_time_seconds=elapsed)
        if observer is not None:
            results.timeline = observer.timeline.to_dict()
        if events is not None:
            events.emit(
                "run_end",
                workload=workload.name,
                scheme=system.scheme.name,
                records=processed,
                wall_seconds=round(elapsed, 6),
            )
        return results

    def _run_scalar(
        self,
        max_records_per_core: int,
        edges: RunEdges,
        resume: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, List[int]]:
        """The reference per-record loop; returns (processed, consumed per core).

        Reads the column buffers the batch engine reads and starts from the
        same heap and resume fast-forward
        (:func:`~repro.sim.batch._init_schedule`), then runs one record per
        heap pop.
        """
        system = self.system
        sources, consumed, heap, processed = _init_schedule(system, max_records_per_core, resume)
        heappush = heapq.heappush
        heappop = heapq.heappop
        process_cols = system.process_record_cols
        next_stop = edges.next_at
        # Every heap entry is a core with records left to run: a core is
        # pushed back only below its budget, and dropped when its stream
        # runs dry.
        while heap:  # repro: hotpath
            _clock, core_id = heappop(heap)
            source = sources[core_id]
            pos = source.pos
            if pos >= source.length:
                if not source.refill():
                    continue
                pos = 0
            new_clock = process_cols(
                core_id, source.gaps[pos], source.addrs[pos], source.writes[pos]
            )
            source.pos = pos + 1
            processed += 1
            consumed[core_id] += 1
            if consumed[core_id] < max_records_per_core:
                # heapq's API requires a fresh (clock, core) entry; this is
                # the loop's one deliberate per-record allocation.
                heappush(heap, (new_clock, core_id))  # repro: allow[hotpath-alloc]
            if processed >= next_stop:
                if edges.edge(processed, consumed):
                    break
                next_stop = edges.next_at
        return processed, consumed
