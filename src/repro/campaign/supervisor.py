"""Fault-tolerant campaign execution: worker leases, retries, quarantine.

:class:`SupervisedExecutor` is the campaign's parallel path.  It manages
one long-lived worker process per slot directly, which is what lets it
survive the failures long overnight runs actually hit:

* **Leases.**  Every cell attempt runs on a worker slot under a *lease*:
  the supervisor knows which worker holds which cell, since when, and
  until when (``cell_timeout``).  Each slot has one pipe, which carries
  the lease to its process and the cell's progress beats and outcome
  back; the outcome is one message, so the supervisor holds all of it or
  none.  The worker then collects its heap and waits for the next lease:
  each cell starts from a collected heap, and no cell pays for a process
  start.  A freed slot gets its next cell before the supervisor stores
  and reports the outcome it just received, so no worker idles through a
  store write.
* **Dead-worker detection.**  The supervisor sleeps until a leased worker
  sends something or exits, so a worker that is OOM-killed or SIGKILLed
  mid-cell is noticed at once (process exit without an outcome).  A
  *wedged* worker is noticed by its lease deadline or by going silent: a
  running cell beats over the slot's pipe every
  :data:`~repro.campaign.executor.BEAT_RECORDS` processed records (see
  :class:`~repro.campaign.executor._ProgressBeat`), so a hung loop goes
  quiet even though the process is alive, with or without an obs sink.
  The supervisor wakes exactly when the next deadline, staleness check or
  retry backoff falls due, and otherwise blocks.  All three use the
  monotonic clock, so a wall-clock step (NTP, VM resume) revokes nothing.
* **Retry with capped exponential backoff.**  Revoking a lease kills that
  slot's process; the next grant on the slot starts a fresh one.  A
  revoked cell is requeued after ``backoff_base * 2**(failures-1)``
  seconds (capped).  If mid-cell auto-snapshots are enabled, the retry
  resumes from the last snapshot instead of record zero — bit-identical to
  an uninterrupted run.
* **Quarantine.**  After ``max_attempts`` revocations the cell is given up
  as *poisoned*: it completes as an error outcome (persisted as a store
  error record tagged ``poisoned``) and the campaign moves on — one bad
  configuration cannot sink a thousand-cell run.
* **Graceful degradation.**  Every involuntary worker death shrinks the
  concurrency target by one (never below one): a host that
  keeps OOM-killing eight workers ends up running serially instead of
  thrashing.

Everything observable is emitted as schema-validated events —
``lease_granted`` / ``lease_revoked`` / ``cell_retry`` /
``cell_quarantined`` — so ``python -m repro.campaign status --live`` shows
recoveries as they happen, and tests (driven by :mod:`repro.faults` plans)
assert them deterministically.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.process
import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.campaign.executor import CellOutcome, ProgressFn, execute_cell
from repro.campaign.spec import CampaignCell
from repro.obs.events import ObsSink

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: Default staleness window in seconds: the supervisor revokes a lease
#: whose worker has been silent this long, and ``status --live`` lists
#: workers whose last event is this old as stale.
STALE_AFTER_SECONDS = 300.0


@dataclass
class SupervisorConfig:
    """Robustness knobs for :class:`SupervisedExecutor`.

    ``cell_timeout`` is the per-*attempt* deadline in seconds; ``None``
    disables deadline revocation (death and staleness still apply).
    ``stale_after`` revokes a lease whose worker has sent nothing over its
    pipe (no progress beat, no outcome) in that many seconds;
    ``None`` disables the staleness check.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    cell_timeout: Optional[float] = None
    stale_after: Optional[float] = STALE_AFTER_SECONDS
    mp_start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.stale_after is not None and self.stale_after <= 0:
            raise ValueError("stale_after must be positive (or None)")

    def backoff(self, failures: int) -> float:
        """Delay before retry number ``failures + 1`` (capped exponential)."""
        if failures <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (failures - 1)))


class CampaignInterrupted(KeyboardInterrupt):
    """Raised by executors after a SIGINT/SIGTERM cleanup (workers killed)."""


@dataclass
class _Lease:
    """One outstanding cell attempt: which worker, since when, until when.

    Times are :func:`time.monotonic` readings.
    """

    index: int
    cell: CampaignCell
    key: str
    attempt: int
    worker: str
    process: "multiprocessing.process.BaseProcess"
    conn: "Connection"
    started: float
    deadline: Optional[float]
    #: When anything last arrived on the worker's pipe (or the grant).
    beat_seen: float
    #: The cell's outcome, once the worker has sent it.
    outcome: Optional[CellOutcome] = None


def _worker_main(
    worker: str,
    conn: "Connection",
    obs: Optional[ObsSink],
    snapshot_dir: Optional[str],
    snapshot_every: Optional[int],
) -> None:
    """Worker slot body: run leased cells until told to stop.

    Each lease arrives as ``(index, key, cell)``.  While the cell runs, its
    progress beats (``None``) go back over the same pipe, and then its
    outcome as one ``(key, result, error, wall_seconds)`` message: a crash
    at any point leaves the supervisor either no outcome (the lease is
    revoked and retried) or a whole one.  ``None``, a hang-up or a
    vanished supervisor ends the loop.
    """
    # The supervisor owns shutdown: a terminal Ctrl-C reaches the whole
    # process group, and SIGTERM must not run the CLI's handler here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Everything alive now is long-lived; freezing it keeps the per-cell
    # collection below from scanning the inherited heap.
    gc.freeze()
    supervisor = os.getppid()
    while True:
        # A supervisor killed outright (OOM killer, SIGKILL, an injected
        # crash) cannot stop its workers, so an orphan exits on its own.
        while not conn.poll(1.0):
            if os.getppid() != supervisor:
                return
        try:
            lease = conn.recv()
        except EOFError:
            return
        if lease is None:
            return
        index, key, cell = lease
        outcome = execute_cell(
            cell, key, obs=obs, worker=worker, cell_index=index,
            snapshot_dir=snapshot_dir, snapshot_every=snapshot_every, pipe=conn,
        )
        try:
            conn.send((outcome.key, outcome.result, outcome.error, outcome.wall_seconds))
        except OSError:
            return  # the supervisor is gone
        del outcome
        # Cyclic garbage from this cell's System would otherwise pile
        # up across cells and inflate the worker's resident memory.
        gc.collect()


class SupervisedExecutor:
    """Run cells across long-lived, directly-managed worker processes with leases.

    Same ``run`` contract as :class:`~repro.campaign.executor.SerialExecutor`
    (one outcome per cell, in input order, bit-identical results) plus the
    recovery behaviour described in the module docstring.  Worker slots
    are named ``w0``, ``w1``, ...; each keeps one process, which runs cell
    after cell and is replaced only when a lease on it is revoked.
    """

    def __init__(self, workers: Optional[int] = None,
                 config: Optional[SupervisorConfig] = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.config = config if config is not None else SupervisorConfig()

    # ------------------------------------------------------------------ run

    def run(
        self,
        cells: Sequence[CampaignCell],
        progress: Optional[ProgressFn] = None,
        obs: Optional[ObsSink] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[CellOutcome]:
        """Run ``cells``; ``keys`` are their ``cell.key()`` values if known."""
        if not cells:
            return []
        cell_keys = [cell.key() for cell in cells] if keys is None else keys
        # Imported here: at module level it lengthens every campaign import.
        from multiprocessing.connection import wait

        cfg = self.config
        if snapshot_every is not None and snapshot_dir is None:
            raise ValueError("snapshot_every requires snapshot_dir")
        context = multiprocessing.get_context(cfg.mp_start_method)
        events = obs.event_log() if obs is not None else None

        total = len(cells)
        outcomes: Dict[int, CellOutcome] = {}
        #: (index, attempt, ready_at) — cells waiting for a worker slot.
        queue: List[List[float]] = [[index, 1, 0.0] for index in range(total)]
        failures: Dict[int, int] = {}
        leases: Dict[str, _Lease] = {}
        #: Each started slot's process and the supervisor's end of its pipe.
        slots: Dict[str, Tuple["multiprocessing.process.BaseProcess", "Connection"]] = {}
        # Granted from the end: a released slot (process alive) goes last
        # and a revoked one first, so a degraded pool keeps no idle
        # processes beyond its target.
        free_slots = [f"w{slot}" for slot in reversed(range(self.workers))]
        target_workers = min(self.workers, total)
        done = 0
        drained = False
        #: Outcomes received but not yet completed: each wake grants the
        #: freed slots their next cells before it stores and reports these.
        finished: List[Tuple[int, CellOutcome]] = []

        def complete() -> None:
            """Record and report every received outcome, in arrival order."""
            nonlocal done
            try:
                while finished:
                    index, outcome = finished.pop(0)
                    outcomes[index] = outcome
                    done += 1
                    if progress is not None:
                        progress(done, total, outcome)
            except BaseException:
                # The progress callback (where the driver stores each
                # outcome) raised: a caller that stops the run there
                # gets no further outcome.
                finished.clear()
                raise

        def start_worker(worker: str) -> Tuple["multiprocessing.process.BaseProcess",
                                               "Connection"]:
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(worker, theirs, obs, snapshot_dir, snapshot_every),
                daemon=True,
            )
            process.start()
            theirs.close()
            return process, ours

        def grant(entry: List[float]) -> None:
            index, attempt = int(entry[0]), int(entry[1])
            cell, key = cells[index], cell_keys[index]
            worker = free_slots.pop()
            if worker not in slots:
                slots[worker] = start_worker(worker)
            process, conn = slots[worker]
            try:
                conn.send((index, key, cell))
            except OSError:
                pass  # the idle worker died; its sentinel revokes the lease
            now = time.monotonic()
            deadline = now + cfg.cell_timeout if cfg.cell_timeout is not None else None
            leases[worker] = _Lease(
                index=index, cell=cell, key=key, attempt=attempt,
                worker=worker, process=process, conn=conn, started=now,
                deadline=deadline, beat_seen=now,
            )
            if events is not None:
                events.emit("lease_granted", key=key, cell=cell.describe(),
                            worker=worker, attempt=attempt,
                            timeout=cfg.cell_timeout)

        def drain(lease: _Lease) -> None:
            """Read what a leased worker sent: ``None`` beats, then its outcome."""
            try:
                while lease.conn.poll():
                    message = lease.conn.recv()
                    # Beats and the outcome alike prove the worker alive.
                    lease.beat_seen = time.monotonic()
                    if message is not None:
                        key, result, error, wall_seconds = message
                        lease.outcome = CellOutcome(
                            lease.cell, key, result, error=error,
                            wall_seconds=wall_seconds, attempt=lease.attempt,
                        )
            except (EOFError, OSError):
                # The worker is gone; the caller handles its death.  A
                # worker that died with a lease unread resets the pipe
                # (ConnectionResetError) instead of closing it.
                pass

        def retire(worker: str, grace: float = 0.0) -> None:
            """Stop a slot's process, killing it after ``grace`` seconds.

            A leased slot's pipe is drained once the process is gone, so a
            lease revoked just after its worker sent the outcome keeps it.
            """
            process, conn = slots.pop(worker)
            process.join(timeout=grace)
            if process.is_alive():
                process.kill()
            process.join(timeout=10.0)
            if worker in leases:
                drain(leases[worker])
            conn.close()

        def revoke(lease: _Lease, reason: str) -> None:
            nonlocal target_workers
            retire(lease.worker)
            del leases[lease.worker]
            free_slots.insert(0, lease.worker)
            # The worker may have sent its outcome in the race window
            # before the kill landed; a completed cell is never retried.
            if lease.outcome is not None:
                finished.append((lease.index, lease.outcome))
                return
            count = failures.get(lease.index, 0) + 1
            failures[lease.index] = count
            # Involuntary deaths erode trust in parallelism: shrink the
            # worker target toward serial instead of thrashing.
            target_workers = max(1, target_workers - 1)
            if events is not None:
                events.emit("lease_revoked", key=lease.key,
                            cell=lease.cell.describe(), worker=lease.worker,
                            attempt=lease.attempt, reason=reason,
                            failures=count, workers=target_workers)
            if count >= cfg.max_attempts:
                error = (f"poisoned: quarantined after {count} failed attempt(s); "
                         f"last revocation: {reason}")
                if events is not None:
                    events.emit("cell_quarantined", key=lease.key,
                                cell=lease.cell.describe(), attempts=count,
                                reason=reason)
                finished.append((lease.index, CellOutcome(
                    lease.cell, lease.key, None, error=error,
                    quarantined=True, attempt=lease.attempt,
                )))
                return
            delay = cfg.backoff(count)
            if events is not None:
                events.emit("cell_retry", key=lease.key,
                            cell=lease.cell.describe(), attempt=count + 1,
                            backoff_seconds=round(delay, 3), reason=reason)
            queue.append([lease.index, count + 1, time.monotonic() + delay])

        try:
            while True:
                now = time.monotonic()
                # Dispatch every ready cell onto a free slot, up to the
                # (possibly degraded) concurrency target; only then store
                # and report what the last wake received.
                queue.sort(key=lambda entry: entry[2])
                while queue and len(leases) < target_workers and queue[0][2] <= now:
                    grant(queue.pop(0))
                complete()
                if not (queue or leases):
                    break

                # Sleep until a leased worker sends something or exits,
                # or the earliest deadline, staleness check or retry
                # backoff falls due; with none pending, block.
                due = [lease.deadline for lease in leases.values()
                       if lease.deadline is not None]
                if cfg.stale_after is not None:
                    due += [lease.beat_seen + cfg.stale_after for lease in leases.values()]
                if queue and len(leases) < target_workers:
                    due.append(queue[0][2])
                wait([lease.conn for lease in leases.values()]
                     + [lease.process.sentinel for lease in leases.values()],
                     max(0.0, min(due) - now) if due else None)
                now = time.monotonic()
                for lease in list(leases.values()):
                    drain(lease)
                    if lease.outcome is not None:
                        del leases[lease.worker]
                        free_slots.append(lease.worker)
                        finished.append((lease.index, lease.outcome))
                    elif not lease.process.is_alive():
                        revoke(lease,
                               reason=f"worker-died (exitcode {lease.process.exitcode})")
                    elif lease.deadline is not None and now > lease.deadline:
                        revoke(lease, reason="timeout")
                    elif cfg.stale_after is not None and now - lease.beat_seen > cfg.stale_after:
                        revoke(lease, reason="stale-heartbeat")
            drained = True
        except KeyboardInterrupt:
            # Graceful stop: kill every worker, keep what finished.
            raise CampaignInterrupted() from None
        finally:
            # After a normal finish every worker is idle and exits on
            # request; otherwise all are killed.
            if drained:
                for _process, conn in slots.values():
                    try:
                        conn.send(None)
                    except OSError:
                        pass
            for worker in list(slots):
                retire(worker, grace=10.0 if drained else 0.0)
            # Outcomes received before an interrupt or error are still
            # stored and reported before it propagates.
            complete()

        return [outcomes[index] for index in sorted(outcomes)]


def terminate_to_interrupt(signum: int, frame: object) -> None:
    """Signal handler mapping SIGTERM onto KeyboardInterrupt.

    Installed by the CLI around ``campaign run`` so a ``kill <pid>`` (what
    schedulers send first) takes the same graceful path as Ctrl-C: leases
    are killed, completed outcomes stay persisted, and ``campaign_end``
    reports ``status="interrupted"``.
    """
    raise KeyboardInterrupt()


def install_signal_handlers() -> Dict[int, object]:
    """Route SIGTERM to KeyboardInterrupt; returns the previous handlers."""
    previous: Dict[int, object] = {}
    try:
        previous[signal.SIGTERM] = signal.signal(signal.SIGTERM, terminate_to_interrupt)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    return previous


def restore_signal_handlers(previous: Dict[int, object]) -> None:
    """Undo :func:`install_signal_handlers`."""
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)  # type: ignore[arg-type]
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
