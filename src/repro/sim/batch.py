"""The batch engine kernel and the engine's one run-cut protocol.

Edges
-----

Both engine loops (scalar, batch) cut their runs in exactly one way: a
:class:`RunEdges` chain names the next processed count it wants control at
(``next_at``), the loop never runs past it, and when ``processed`` reaches
it the loop makes one ``edges.edge(...)`` call.
Everything that needs control between two records is a
:class:`RunController` member of that chain, dispatched in a fixed order:

1. the warmup edge (:class:`WarmupEdge`): ``System.begin_measurement`` plus
   the ``warmup_end`` event — first, so every later member already sees the
   measurement window open;
2. the :class:`~repro.obs.timeline.TimelineObserver`, whose window
   boundaries include a forced one at the warmup edge;
3. the caller's controller (``SimulationEngine.run(controller=)``), which
   may itself be a :class:`ControllerChain` of several, in the order given;
4. the ``max_total_records`` budget (:class:`RunBudget`) — last, so members
   due at the same count fire before it stops the run.

A member fires only when the edge reached *its own* stop; only then is its
:meth:`RunController.next_stop` asked again.  To steer a run, subclass
:class:`RunController`: return the next processed count you want from
``next_stop`` (``None`` for no more), do your work in ``on_edge`` (it may
capture a snapshot, or return ``True`` to stop the run) and clean up in
``on_finish``.  An attached controller costs the loops nothing but the
extra run cuts, and results stay bit-identical: edges fall between records.

Batch scheduling and order preservation
---------------------------------------

Both engine modes start the same way: :func:`_init_schedule` opens one
:class:`_CoreSource` per core, which buffers the ``(gaps, addrs, writes)``
batches of :meth:`Workload.trace_batches`, fast-forwards the sources on a
resume and builds the heap.  The scalar loop then runs one record per heap
pop.  This kernel processes **runs** — record sequences one core executes
before any other core's clock could interleave — touching the heap once
per run.

The heap invariant of the scalar engine is that every live core holds exactly
one ``(clock, core_id)`` entry, keyed by its clock *after its previous
record* (0.0 before its first).  The next record therefore always belongs to
the core with the minimum key, ties broken by core id.  This scheduler keeps
the same ``heapq`` heap, pops its minimum ``c`` once per run and probes
``c``'s next record before it builds any run state:

* **Slow first record.**  When the inline hit path (below) cannot take the
  record and another core is live, the run is that one record: one
  ``process_record_cols`` call, then ``c`` is pushed back keyed by its new
  clock.  That is the scalar loop's own step — ``c`` was the minimum, and
  its new key is its clock after the record — so order and heap keys are
  unchanged.  On the miss-bound workloads most runs are of this kind.
* **Inline-eligible first record, or ``c`` alone.**  The new minimum
  ``heap[0] = B = (b_clock, b_core)`` (``(inf, num_cores)`` when ``c`` is
  the only live core) bounds the run: ``c`` keeps executing records while
  its evolving clock satisfies ``(clock, c) < B`` — exactly the condition
  under which the scalar heap would pop it again.  The first record needs
  no check (``c`` is the minimum).  After the run ``c`` is pushed back with
  its new clock.  A core running alone takes this branch whatever its
  first record: nothing bounds its run, so one-record steps would only pay
  the heap per record.

Either way ``c`` goes back only while it is below its budget; a core whose
stream runs dry is dropped when it would next run, as in the scalar loop.
Every run is cut at the next edge, so every edge fires at the same processed
count as in the scalar loop.  Pending OS stalls only apply when the stalled
core executes its next record (both engines), so no other core's key can
change while ``c`` runs.  The interleaving — and therefore DRAM channel
contention — is provably identical, and all results are bit-identical to
the scalar engine.

Within a run, records that hit both the TLB and the L1 with no pending OS
stall touch only core-private state; they are executed by an inlined copy of
:meth:`System.process_record_cols`'s hit path (same float operations, same
order).  Everything else falls back to ``process_record_cols`` itself.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.events import EventLog
    from repro.sim.system import System
    from repro.workloads.base import TraceBatch

#: "No further stop": beyond any processed count a run can reach.  An int,
#: so the loops' cut arithmetic stays in ints.
_NO_STOP = 1 << 62


class EngineCursor:
    """View of engine progress handed to controller edges.

    ``consumed_per_core`` counts the records each core has consumed *within
    the current run* — workload streams restart per run, so these are
    exactly the fast-forward distances a snapshot resume needs.  Only the
    warmup edge writes to a cursor: it sets ``measurement_started``, so the
    members after it see the measurement window open.
    """

    __slots__ = ("system", "processed", "consumed_per_core", "measurement_started")

    def __init__(
        self,
        system: "System",
        processed: int,
        consumed_per_core: List[int],
        measurement_started: bool,
    ) -> None:
        self.system = system
        self.processed = processed
        self.consumed_per_core = consumed_per_core
        self.measurement_started = measurement_started


class RunController:
    """Steers a running engine from outside the per-record loop.

    A controller names the next processed-record count it wants control at
    (:meth:`next_stop`); the engine cuts its runs there and calls
    :meth:`on_edge` with an :class:`EngineCursor`.  ``on_edge`` may mutate
    its own state, capture snapshots, or return ``True`` to stop the run
    early.  :meth:`on_finish` fires once after the last record (or after an
    early stop).  See the module docstring for where a controller sits
    among the engine's own edges.
    """

    def next_stop(self, processed: int) -> Optional[int]:
        """Next processed count to fire an edge at; None = no more edges."""
        return None

    def on_edge(self, cursor: EngineCursor) -> bool:
        """Handle an edge; return True to stop the run early."""
        return False

    def on_finish(self, cursor: EngineCursor) -> None:
        """Called once when the run ends (normally or via an early stop)."""
        return None


def _stop_after(controller: RunController, processed: int) -> int:
    """``controller``'s next stop as a bound the loops can compare against.

    ``None`` maps to :data:`_NO_STOP`; a stop at or before ``processed`` is
    clamped one record ahead, so a stale stop cannot stall the loop.
    """
    stop = controller.next_stop(processed)
    if stop is None:
        return _NO_STOP
    return int(stop) if stop > processed else processed + 1


class ControllerChain(RunController):
    """Several controllers sharing one engine slot.

    Members fire in the order given, each only at its *own* stops: at an
    edge, a member's ``on_edge`` runs when the processed count reached the
    stop it last asked for, and only then is its ``next_stop`` asked again.
    Any member may stop the run (the members due after it still fire at
    that edge); every member's ``on_finish`` fires once.
    """

    def __init__(self, members: Sequence[Optional[RunController]]) -> None:
        self.members: List[RunController] = [m for m in members if m is not None]
        # Each member's pending stop: scheduled by the first next_stop of a
        # run and cleared by on_finish, so one chain can drive several runs.
        self._stops: Optional[List[int]] = None

    def _next(self, processed: int) -> int:
        if self._stops is None:
            self._stops = [_stop_after(member, processed) for member in self.members]
        return min(self._stops, default=_NO_STOP)

    def next_stop(self, processed: int) -> Optional[int]:
        stop = self._next(processed)
        return None if stop >= _NO_STOP else stop

    def on_edge(self, cursor: EngineCursor) -> bool:
        processed = cursor.processed
        stops = self._stops
        assert stops is not None, "the engine asks next_stop before any edge"
        stop_run = False
        for index, member in enumerate(self.members):
            if processed >= stops[index]:
                if member.on_edge(cursor):
                    stop_run = True
                stops[index] = _stop_after(member, processed)
        return stop_run

    def on_finish(self, cursor: EngineCursor) -> None:
        self._stops = None
        for member in self.members:
            member.on_finish(cursor)


class WarmupEdge(RunController):
    """Opens the measurement window at ``threshold`` processed records."""

    def __init__(self, threshold: int, events: Optional["EventLog"] = None) -> None:
        self.threshold = threshold
        self.events = events

    def next_stop(self, processed: int) -> Optional[int]:
        return self.threshold if processed < self.threshold else None

    def on_edge(self, cursor: EngineCursor) -> bool:
        cursor.system.begin_measurement()
        cursor.measurement_started = True
        if self.events is not None:
            self.events.emit("warmup_end", records=cursor.processed)
        return False


class RunBudget(RunController):
    """Stops the run at ``limit`` processed records (``max_total_records``)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def next_stop(self, processed: int) -> Optional[int]:
        return self.limit

    def on_edge(self, cursor: EngineCursor) -> bool:
        return True


class RunEdges(ControllerChain):
    """One run's edge chain: what the engine loops compare against and call.

    ``members`` are given in dispatch order (warmup, observer, caller,
    budget; see the module docstring).  The loops read :attr:`next_at`, cut
    their runs there, and call :meth:`edge` when ``processed`` reaches it.
    """

    def __init__(
        self,
        system: "System",
        members: Sequence[Optional[RunController]],
        processed: int,
        measurement_started: bool,
    ) -> None:
        super().__init__(members)
        self.system = system
        self.measurement_started = measurement_started
        #: Processed count of the next edge.
        self.next_at = self._next(processed)

    def edge(self, processed: int, consumed: List[int]) -> bool:
        """Fire every member due at ``processed``; True when the run must stop."""
        cursor = EngineCursor(self.system, processed, list(consumed), self.measurement_started)
        stop_run = self.on_edge(cursor)
        self.measurement_started = cursor.measurement_started
        self.next_at = self._next(processed)
        return stop_run

    def finish(self, processed: int, consumed: List[int]) -> None:
        """Fire every member's ``on_finish`` once the run has ended."""
        self.on_finish(
            EngineCursor(self.system, processed, list(consumed), self.measurement_started)
        )


def _fast_forward(source: _CoreSource, count: int) -> int:
    """Skip ``count`` already-consumed records; returns the records skipped."""
    skipped = 0
    while count > 0:
        if source.pos >= source.length and not source.refill():
            break
        step = source.length - source.pos
        if step > count:
            step = count
        source.pos += step
        count -= step
        skipped += step
    return skipped


class _CoreSource:
    """One core's column buffers, refilled batch-by-batch from the workload."""

    __slots__ = ("batches", "gaps", "addrs", "writes", "pos", "length", "const_gap")

    def __init__(self, batches: Iterator["TraceBatch"]) -> None:
        self.batches = batches
        self.gaps: List[int] = []
        self.addrs: List[int] = []
        self.writes: List[bool] = []
        self.pos = 0
        self.length = 0
        # The batch's gap when every record shares it (fixed-rate workloads:
        # all the graph generators), else None.  Lets the inline hit path
        # reuse one precomputed gap/issue_width quotient instead of indexing
        # and dividing per record; the quotient is the same float either way.
        self.const_gap: Optional[int] = None

    def refill(self) -> bool:
        """Load the next non-empty batch; False when the stream is exhausted."""
        while True:
            try:
                gaps, addrs, writes = next(self.batches)
            except StopIteration:
                return False
            if gaps:
                self.gaps = gaps
                self.addrs = addrs
                self.writes = writes
                self.pos = 0
                self.length = len(gaps)
                gap0 = gaps[0]
                self.const_gap = gap0 if gaps.count(gap0) == len(gaps) else None
                return True


def _init_schedule(
    system: "System",
    max_records_per_core: int,
    resume: Optional[Dict[str, Any]],
) -> Tuple[List[_CoreSource], List[int], List[Tuple[float, int]], int]:
    """Build (sources, consumed, heap, processed) for a run of either engine mode.

    One :class:`_CoreSource` per core over the workload's ``trace_batches``.
    The heap holds one ``(clock, core_id)`` entry per core below its budget:
    0.0 before a core's first record (even on a reused engine), the core's
    clock after its latest record otherwise.  On a resume the sources are
    fast-forwarded by the snapshot's consumed counts and the keys come from
    the restored core clocks — exactly the keys the original run held at
    the snapshot edge.
    """
    num_cores = system.config.num_cores
    workload = system.workload
    sources = [_CoreSource(workload.trace_batches(core_id)) for core_id in range(num_cores)]
    if resume is None:
        consumed = [0] * num_cores
        processed = 0
    else:
        consumed = [int(count) for count in resume["consumed_per_core"]]
        processed = int(resume["processed"])
        for core_id, count in enumerate(consumed):
            skipped = _fast_forward(sources[core_id], count)
            if skipped != count:
                raise ValueError(
                    f"cannot resume: core {core_id} stream holds {skipped} "
                    f"records, snapshot consumed {count}; the workload does "
                    "not match the snapshot"
                )
    cores = system.cores
    heap = [
        (cores[core_id].clock if consumed[core_id] > 0 else 0.0, core_id)
        for core_id in range(num_cores)
        if consumed[core_id] < max_records_per_core
    ]
    heapq.heapify(heap)
    return sources, consumed, heap, processed


class BatchRunner:
    """One run of the batch engine (constructed per :meth:`SimulationEngine.run`)."""

    def __init__(self, system: "System") -> None:
        self._system = system
        self._process_cols = system.process_record_cols
        # The inline hit path replicates process_record_cols's TLB-hit +
        # L1-hit branch, which is only reachable when no per-record hook is
        # attached.  HMA's cycle notification is the one such hook: with it
        # every record takes the full path.
        self._fast_ok = system._notify_cycle is None

    def run(
        self,
        max_records_per_core: int,
        edges: RunEdges,
        resume: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, List[int]]:
        """Drive the whole simulation; returns (processed, consumed per core).

        The scheduler and record loop are fully inlined.  Multicore
        interleave runs average only one to a few records (cores advance
        their clocks at similar rates), so per-run overhead is paid almost
        per record.  A run whose first record cannot take the inline hit
        path is therefore that one record, stepped as in the scalar loop
        with no run set-up, unless its core runs alone.  Only the other
        runs read their bound, unpack the rest of their core's context
        (tuples built once per run()) and keep the three float
        accumulators (core clock, compute cycles, memory stall cycles) in
        locals, flushing them only around slow-path calls and at the run's
        end.  The flushes preserve the exact per-record
        addition order, so results stay bit-identical (see the module
        docstring for the order proof).
        """
        system = self._system
        num_cores = system.config.num_cores
        process_cols = self._process_cols
        fast_ok = self._fast_ok
        page_size = system.page_size
        # The inline path computes vpns with a shift; a non-power-of-two page
        # size (no shipped config has one) just disables the inline path and
        # every record takes process_record_cols — still bit-identical.
        page_shift = page_size.bit_length() - 1
        if (1 << page_shift) != page_size:
            fast_ok = False
        # Per-core invariant state, resolved once: what probes a run's first
        # record (core, tlb entries, l1 sets, set mask, line bits), and the
        # rest of what a run needs (tlb, l1, tlb move_to_end, lru flag,
        # issue width, l1 stall, stats).
        probes: List[Any] = []
        contexts: List[Any] = []
        for core_id in range(num_cores):
            core = system.cores[core_id]
            tlb = system.tlbs[core_id]
            l1 = system.hierarchy.l1[core_id]
            probes.append((core, tlb._entries, l1._sets, l1._set_mask, l1._line_bits))
            contexts.append((
                tlb, l1, tlb._entries.move_to_end, l1._lru,
                core._issue_width, core._l1_stall, core.stats,
            ))
        sources, consumed, heap, processed = _init_schedule(system, max_records_per_core, resume)
        heappop = heapq.heappop
        heappush = heapq.heappush
        infinity = float("inf")
        next_stop = edges.next_at

        # One iteration per run.  On the miss-bound workloads most runs are
        # a single record that misses the TLB or the L1, so the first record
        # is probed before any run state is built.
        while heap:  # repro: hotpath
            _key, best = heappop(heap)
            source = sources[best]
            pos = source.pos
            if pos >= source.length:
                if not source.refill():
                    # As in the scalar loop, the minimum core is dropped
                    # when it would next run.
                    continue
                pos = 0
            addr = source.addrs[pos]
            core, tlb_entries, l1_sets, set_mask, line_bits = probes[best]
            if heap and not (
                fast_ok
                and core._pending_stall == 0.0
                and addr >> page_shift in tlb_entries
                and addr >> line_bits in l1_sets[(addr >> line_bits) & set_mask]
            ):
                # A slow first record takes the scalar loop's own step: one
                # call, and the core goes back on the heap keyed by its new
                # clock.  A core running alone (an empty heap) starts a run
                # instead: nothing bounds it, so it lasts to the batch's end
                # or the next edge.
                clock = process_cols(best, source.gaps[pos], addr, source.writes[pos])
                source.pos = pos + 1
                processed += 1
                consumed[best] += 1
                if consumed[best] < max_records_per_core:
                    # heapq's API requires a fresh (clock, core) entry: the
                    # scalar loop's per-record push.
                    heappush(heap, (clock, best))  # repro: allow[hotpath-alloc]
                if processed >= next_stop:
                    if edges.edge(processed, consumed):
                        break
                    next_stop = edges.next_at
                continue
            # The run's bound: the next core in (clock, core_id) order.
            if heap:
                b_clock, b_core = heap[0]
            else:
                b_clock = infinity
                b_core = num_cores
            # The run ends at the core's budget, the buffered batch's end or
            # the next edge, whichever comes first.
            cap = max_records_per_core - consumed[best]
            avail = source.length - pos
            if avail < cap:
                cap = avail
            left = next_stop - processed
            if left < cap:
                cap = left
            tlb, l1, tlb_move, l1_lru, issue_width, l1_stall, stats = contexts[best]
            gaps = source.gaps
            addrs = source.addrs
            writes = source.writes
            const_gap = source.const_gap
            cycles_const = const_gap / issue_width if const_gap is not None else 0.0
            tie_lt = best < b_core
            start = pos
            end = pos + cap
            clock = core.clock
            cc = stats.compute_cycles
            ms = stats.memory_stall_cycles
            instructions = 0
            fast_count = 0
            # The inline hit path cannot set a pending stall, so the check
            # holds across fast records and is only re-evaluated after a
            # slow-path call (which can trigger OS events).
            fast_here = fast_ok and core._pending_stall == 0.0
            while pos < end:
                addr = addrs[pos]
                if fast_here:
                    vpn = addr >> page_shift
                    if vpn in tlb_entries:
                        line = addr >> line_bits
                        bucket = l1_sets[line & set_mask]
                        if line in bucket:
                            # Inline TLB-hit + L1-hit path: identical
                            # operations in identical order to
                            # process_record_cols, so bit-identical.  The
                            # L1 hit is the hierarchy walk's own: under
                            # LRU the line is popped and inserted again
                            # (the set's end is its MRU), and the
                            # ``writes`` columns hold bools, so stored
                            # dirty bits keep their type.
                            if const_gap is None:
                                gap = gaps[pos]
                                cycles = gap / issue_width
                            else:
                                gap = const_gap
                                cycles = cycles_const
                            tlb_move(vpn)
                            if l1_lru:
                                bucket[line] = bucket.pop(line) or writes[pos]
                            elif writes[pos]:
                                bucket[line] = True
                            clock += cycles
                            cc += cycles
                            clock += l1_stall
                            ms += l1_stall
                            instructions += gap
                            fast_count += 1
                            pos += 1
                            if clock < b_clock or (clock == b_clock and tie_lt):
                                continue
                            break
                # Slow path: flush the float accumulators (their per-record
                # addition order must be preserved), call, reload.
                core.clock = clock
                stats.compute_cycles = cc
                stats.memory_stall_cycles = ms
                clock = process_cols(best, gaps[pos], addr, writes[pos])
                cc = stats.compute_cycles
                ms = stats.memory_stall_cycles
                fast_here = fast_ok and core._pending_stall == 0.0
                pos += 1
                if clock < b_clock or (clock == b_clock and tie_lt):
                    continue
                break
            core.clock = clock
            stats.compute_cycles = cc
            stats.memory_stall_cycles = ms
            stats.instructions += instructions
            stats.memory_accesses += fast_count
            tlb.hits += fast_count
            l1.hits += fast_count
            done = pos - start
            source.pos = pos
            processed += done
            consumed[best] += done
            if consumed[best] < max_records_per_core:
                # heapq's API requires a fresh (clock, core) entry: one tuple
                # per run, the scalar loop's per-record push amortised.
                heappush(heap, (clock, best))  # repro: allow[hotpath-alloc]
            if processed >= next_stop:
                if edges.edge(processed, consumed):
                    break
                next_stop = edges.next_at
        return processed, consumed
