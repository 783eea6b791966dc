"""Structured run events: an append-only JSONL log of what happened when.

Every event is one self-contained JSON line::

    {"ts": 1754550000.123, "pid": 4242, "event": "cell_finish", ...}

``ts`` is Unix epoch seconds, ``pid`` the emitting process, ``event`` one
of :data:`EVENT_TYPES`.  Everything else is event-specific context (cell
key, workload, wall seconds, ...).

Writes are one ``write()`` call of one line on a file opened in append
mode, so concurrent emitters — the campaign driver and every
:class:`~repro.campaign.supervisor.SupervisedExecutor` worker append to
the same file — interleave at line granularity on POSIX and a truncated tail
(crash mid-write) costs at most one line, exactly like the result store.

:class:`EventLog` is picklable (it holds only the path), which is what
lets campaign cells carry it into spawn-based worker processes.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: Known event types (the schema CI validates against).
EVENT_TYPES = frozenset({
    "run_start",       # engine: one simulation begins
    "warmup_end",      # engine: warmup boundary / measurement window opens
    "run_end",         # engine: one simulation finished
    "cell_start",      # executor: a campaign cell starts simulating
    "cell_finish",     # executor: a campaign cell completed successfully
    "cell_error",      # executor: a campaign cell raised
    "heartbeat",       # executor: a running cell's progress beat (every BEAT_RECORDS records)
    "campaign_start",  # driver: campaign expansion done, execution begins
    "campaign_end",    # driver: campaign finished
    "snapshot_saved",  # runner: a mid-cell auto-snapshot written to disk
    "snapshot_restored",  # runner: a cell resumed mid-run from an auto-snapshot
    "lease_granted",   # supervisor: a cell was leased to a worker process
    "lease_revoked",   # supervisor: a lease died/timed out/went stale
    "cell_retry",      # supervisor: a revoked cell was requeued with backoff
    "cell_quarantined",  # supervisor: a cell exhausted its attempts (poisoned)
})

#: Fields every event carries.
REQUIRED_FIELDS = ("ts", "event", "pid")


def make_event(event: str, **fields) -> Dict[str, object]:
    """Build one event record (stamps ``ts`` and ``pid``)."""
    if event not in EVENT_TYPES:
        raise ValueError(f"unknown event type {event!r}; expected one of {sorted(EVENT_TYPES)}")
    record: Dict[str, object] = {"ts": time.time(), "pid": os.getpid(), "event": event}
    record.update(fields)
    return record


def validate_event(record: object) -> Dict[str, object]:
    """Check one parsed event against the schema; returns it on success.

    Raises ``ValueError`` describing the first violation — used by tests
    and the CI obs smoke step to keep every emitter honest.
    """
    if not isinstance(record, dict):
        raise ValueError(f"event must be a JSON object, got {type(record).__name__}")
    for field_name in REQUIRED_FIELDS:
        if field_name not in record:
            raise ValueError(f"event missing required field {field_name!r}: {record}")
    if not isinstance(record["ts"], numbers.Real) or isinstance(record["ts"], bool):
        raise ValueError(f"event ts must be a number, got {record['ts']!r}")
    if not isinstance(record["pid"], int) or isinstance(record["pid"], bool):
        raise ValueError(f"event pid must be an integer, got {record['pid']!r}")
    if record["event"] not in EVENT_TYPES:
        raise ValueError(f"unknown event type {record['event']!r}")
    return record


class EventLog:
    """Append-only JSONL event writer bound to one path."""

    def __init__(self, path) -> None:
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)

    def emit(self, event: str, **fields) -> Dict[str, object]:
        """Append one event; returns the record written."""
        record = make_event(event, **fields)
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventLog({self.path!r})"


def read_events(path, validate: bool = False) -> List[Dict[str, object]]:
    """Load every event from a JSONL log, skipping a truncated tail line."""
    records: List[Dict[str, object]] = []
    event_path = Path(path)
    if not event_path.exists():
        return records
    with event_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if validate:
                validate_event(record)
            records.append(record)
    return records


@dataclass
class ObsSink:
    """Where a campaign's observability output lands (picklable).

    ``events_path`` collects the structured event log (``None`` disables
    it).  :meth:`for_directory` applies the standard layout a result store
    uses: ``<dir>/events.jsonl``.
    """

    events_path: Optional[str] = None

    @classmethod
    def for_directory(cls, directory) -> "ObsSink":
        return cls(events_path=str(Path(directory) / "events.jsonl"))

    def event_log(self) -> Optional[EventLog]:
        return EventLog(self.events_path) if self.events_path else None
