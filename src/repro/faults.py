"""Deterministic fault injection: seeded chaos for campaign robustness.

A :class:`FaultPlan` describes exactly where a run should break — "SIGKILL
the worker at cell 3", "hang after 10k records", "truncate the store line
mid-append" — so that the supervisor's recovery machinery (lease
revocation, retry with backoff, quarantine, mid-cell snapshot resume) is
testable in CI instead of only observable in overnight runs.

Plans are compact strings, e.g.::

    kill@cell=3
    hang@records=10k
    kill@cell=0:records=600:times=2
    error@cell=1
    truncate-store@put=2
    drop-heartbeat@cell=0

``<kind>@<field>=<value>[:<field>=<value>...]`` entries separated by
``;``.  ``times`` bounds how often a fault fires (default 1); counts with
``k``/``m`` suffixes are accepted.  Injection rides two environment
variables — :data:`PLAN_ENV` carries the plan string and
:data:`STATE_ENV` a directory of fired-claim marker files — so worker
processes (fork or spawn) inherit the plan, and "fire once" is once
*globally across all processes*: the first process to reach the trigger
claims the firing by atomically creating the marker file (``O_EXCL``).

Fire sites (each checked by the code that owns the failure point):

``cell``
    a worker is about to simulate campaign cell ``cell`` (pending order).
``records``
    a running cell crossed ``records`` processed records (fired from a
    run-controller edge, so kills land *between* two records —
    deterministic, and exactly where snapshots cut).
``store``
    the result store is about to append its ``put``-th record.

Fault kinds: ``kill`` (SIGKILL this process), ``hang`` (stop making
progress — and stop heartbeating — until killed), ``error`` (raise
:class:`FaultInjected`, exercising the per-cell error path),
``truncate-store`` (write half the pending store line, then die — a crash
mid-append), ``drop-heartbeat`` (silence this cell attempt's progress
beats — pipe messages and ``heartbeat`` events alike — for the rest of the
attempt, exercising stale-lease revocation).

Everything here is stdlib-only and deliberately free of any simulator
dependency, so the store, the executor and the runner can call
:func:`fire` unconditionally — with no plan loaded it is one ``None``
check.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional, Sequence, Union

#: Environment variable carrying the serialized plan into worker processes.
PLAN_ENV = "REPRO_FAULTS"
#: Environment variable naming the shared fired-claim state directory.
STATE_ENV = "REPRO_FAULTS_STATE"

#: Recognised fault kinds.
FAULT_KINDS = ("kill", "hang", "error", "truncate-store", "drop-heartbeat")

#: Recognised trigger fields (``times`` bounds firings, the rest match sites).
_FIELDS = ("cell", "records", "put", "times")

#: How long one ``hang`` sleep slice lasts; the hang loops until killed.
_HANG_SLICE_SECONDS = 0.25


class FaultInjected(RuntimeError):
    """Raised by the ``error`` fault kind (caught by per-cell isolation)."""


def _parse_count(text: str) -> int:
    """Parse ``600`` / ``10k`` / ``2m`` into an integer."""
    text = text.strip().lower()
    factor = 1
    if text.endswith("k"):
        factor, text = 1_000, text[:-1]
    elif text.endswith("m"):
        factor, text = 1_000_000, text[:-1]
    return int(text) * factor


class FaultSpec:
    """One fault: a kind plus the trigger coordinates that fire it."""

    __slots__ = ("kind", "cell", "records", "put", "times")

    def __init__(
        self,
        kind: str,
        cell: Optional[int] = None,
        records: Optional[int] = None,
        put: Optional[int] = None,
        times: int = 1,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
        if cell is None and records is None and put is None:
            raise ValueError(f"fault {kind!r} needs a trigger (cell=, records= or put=)")
        if times <= 0:
            raise ValueError("times must be positive")
        self.kind = kind
        self.cell = cell
        self.records = records
        self.put = put
        self.times = times

    @property
    def site(self) -> str:
        """Which fire site this spec listens on."""
        if self.put is not None:
            return "store"
        if self.records is not None:
            return "records"
        return "cell"

    def matches(self, site: str, cell: Optional[int] = None,
                records: Optional[int] = None, put: Optional[int] = None) -> bool:
        """Whether a :func:`fire` call at ``site`` triggers this spec."""
        if site != self.site:
            return False
        if site == "store":
            return put == self.put
        if self.cell is not None and cell != self.cell:
            return False
        if site == "records":
            return records is not None and self.records is not None and records >= self.records
        return True

    def __str__(self) -> str:
        parts = []
        for name in ("cell", "records", "put"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        return f"{self.kind}@{':'.join(parts)}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSpec({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        text = text.strip()
        if "@" not in text:
            raise ValueError(f"fault spec {text!r} must look like kind@field=value[:field=value]")
        kind, _, rest = text.partition("@")
        fields: Dict[str, int] = {}
        for part in rest.split(":"):
            part = part.strip()
            if not part:
                continue
            name, eq, value = part.partition("=")
            name = name.strip()
            if not eq or name not in _FIELDS:
                raise ValueError(
                    f"bad fault field {part!r} in {text!r}; expected one of {_FIELDS}"
                )
            fields[name] = _parse_count(value)
        return cls(kind.strip(), **fields)


class FaultPlan:
    """An ordered list of :class:`FaultSpec` entries."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = list(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __str__(self) -> str:
        return ";".join(str(spec) for spec in self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        entries = [entry for entry in text.split(";") if entry.strip()]
        if not entries:
            raise ValueError("empty fault plan")
        return cls([FaultSpec.parse(entry) for entry in entries])

    def record_triggers(self, cell: Optional[int]) -> List[int]:
        """Processed-record counts at which a controller edge must fire for
        ``cell`` (specs bound to another cell index are excluded)."""
        triggers = []
        for spec in self.specs:
            if spec.records is None:
                continue
            if spec.cell is not None and cell != spec.cell:
                continue
            triggers.append(spec.records)
        return sorted(set(triggers))


class FaultInjector:
    """Evaluates a plan at fire sites, claiming firings atomically.

    ``state_dir`` makes claims global across processes: firing slot ``t``
    of spec ``i`` creates ``<state_dir>/fault-<i>.<t>`` with ``O_EXCL``;
    whoever creates it fires.  Without a state directory (unit tests),
    claims are process-local counters.
    """

    def __init__(self, plan: FaultPlan, state_dir: Optional[str] = None) -> None:
        self.plan = plan
        self.state_dir = state_dir
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
        self._local_fired: Dict[int, int] = {}
        self.heartbeats_dropped = False

    def _claim(self, index: int, spec: FaultSpec) -> bool:
        if self.state_dir is None:
            fired = self._local_fired.get(index, 0)
            if fired >= spec.times:
                return False
            self._local_fired[index] = fired + 1
            return True
        for slot in range(spec.times):
            marker = os.path.join(self.state_dir, f"fault-{index}.{slot}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fire(self, site: str, cell: Optional[int] = None, records: Optional[int] = None,
             put: Optional[int] = None, store_path: Optional[str] = None,
             store_line: Optional[str] = None) -> None:
        """Evaluate every spec against one fire site; execute what claims."""
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(site, cell=cell, records=records, put=put):
                continue
            if not self._claim(index, spec):
                continue
            self._execute(spec, store_path=store_path, store_line=store_line)

    def record_triggers(self, cell: Optional[int]) -> List[int]:
        return self.plan.record_triggers(cell)

    # ------------------------------------------------------------------ actions

    def _execute(self, spec: FaultSpec, store_path: Optional[str],
                 store_line: Optional[str]) -> None:
        if spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "hang":
            # Stop progressing (and heartbeating) until the supervisor kills
            # this process; sliced sleeps keep signals responsive.
            while True:  # pragma: no cover - exits only via a signal
                time.sleep(_HANG_SLICE_SECONDS)
        elif spec.kind == "error":
            raise FaultInjected(f"injected fault: {spec}")
        elif spec.kind == "truncate-store":
            # A crash mid-append: half the line lands on disk, no newline,
            # and the process dies before it can finish the write.
            if store_path is not None and store_line is not None:
                with open(store_path, "a", encoding="utf-8") as handle:
                    handle.write(store_line[: max(1, len(store_line) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
            os._exit(1)
        elif spec.kind == "drop-heartbeat":
            self.heartbeats_dropped = True


# ---------------------------------------------------------------------------
# process-global injector (loaded lazily from the environment)
# ---------------------------------------------------------------------------

_INJECTOR: Optional[FaultInjector] = None
_LOADED = False
_CURRENT_CELL: Optional[int] = None


def active_injector() -> Optional[FaultInjector]:
    """The process's injector, parsed once from the environment (or None)."""
    global _INJECTOR, _LOADED
    if not _LOADED:
        _LOADED = True
        text = os.environ.get(PLAN_ENV)
        if text:
            _INJECTOR = FaultInjector(FaultPlan.parse(text), os.environ.get(STATE_ENV))
    return _INJECTOR


def install(plan: Union[str, FaultPlan, None], state_dir: Optional[str] = None) -> None:
    """Install (or, with ``None``, clear) this process's injector directly.

    Accepts a plan string or an already-parsed :class:`FaultPlan`.  Also
    exports/clears the environment so child worker processes inherit the
    same plan; the CLI's ``--inject`` lands here.
    """
    global _INJECTOR, _LOADED
    _LOADED = True
    if plan is None:
        _INJECTOR = None
        os.environ.pop(PLAN_ENV, None)
        os.environ.pop(STATE_ENV, None)
        return
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _INJECTOR = FaultInjector(plan, state_dir)
    os.environ[PLAN_ENV] = str(plan)
    if state_dir is not None:
        os.environ[STATE_ENV] = state_dir


def reset() -> None:
    """Forget any loaded injector (tests re-read the environment next call)."""
    global _INJECTOR, _LOADED, _CURRENT_CELL
    _INJECTOR = None
    _LOADED = False
    _CURRENT_CELL = None


def set_current_cell(index: Optional[int]) -> None:
    """Record which campaign cell this process is executing (fire context).

    A new cell also starts with a live heartbeat: ``drop-heartbeat``
    silences one cell attempt, even in a worker that runs many cells.
    """
    global _CURRENT_CELL
    _CURRENT_CELL = index
    if _INJECTOR is not None:
        _INJECTOR.heartbeats_dropped = False


def current_cell() -> Optional[int]:
    return _CURRENT_CELL


def fire(site: str, cell: Optional[int] = None, records: Optional[int] = None,
         put: Optional[int] = None, store_path: Optional[str] = None,
         store_line: Optional[str] = None) -> None:
    """Module-level fire hook: one ``None`` check when no plan is loaded."""
    injector = active_injector()
    if injector is None:
        return
    if cell is None:
        cell = _CURRENT_CELL
    injector.fire(site, cell=cell, records=records, put=put,
                  store_path=store_path, store_line=store_line)


def heartbeat_dropped() -> bool:
    """Whether the ``drop-heartbeat`` fault has silenced this process."""
    injector = _INJECTOR
    return injector is not None and injector.heartbeats_dropped
