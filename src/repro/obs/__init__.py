"""Observability: interval-timeline metrics, run events, live telemetry.

The layer every other subsystem reports through:

* :mod:`repro.obs.timeline` — :class:`TimelineObserver` reads windowed
  metric deltas at engine edges during a run, yielding a :class:`Timeline`
  attached to ``SimulationResults.timeline`` (exact CSV round-trip);
* :mod:`repro.obs.events` — append-only JSONL event logs
  (:class:`EventLog`) with schema validation, plus
  :class:`ObsSink` naming a campaign's event log, which
  ``python -m repro.campaign status --live`` reads;
* :mod:`repro.obs.snapshot` — :class:`EngineSnapshot` pickles the whole
  system at a record boundary; restoring resumes bit-identically in every
  engine mode (and backs campaign mid-cell auto-snapshots), and
  :func:`~repro.obs.snapshot.state_view` renders it as diffable JSON;
* :mod:`repro.obs.export_chrome` — Chrome trace-event JSON export of
  timelines and event logs (open in Perfetto);
* ``python -m repro.obs`` (:mod:`repro.obs.cli`) summarizes, exports and
  replays all of the above.
"""

from repro.obs.events import (
    EVENT_TYPES,
    EventLog,
    ObsSink,
    make_event,
    read_events,
    validate_event,
    write_events,
)
from repro.obs.export_chrome import events_to_trace, timeline_to_trace, write_trace
from repro.obs.snapshot import EngineSnapshot, capture, capture_cursor
from repro.obs.timeline import (
    DEFAULT_INTERVAL_RECORDS,
    Timeline,
    TimelineObserver,
    TimelineWindow,
)

__all__ = [
    "DEFAULT_INTERVAL_RECORDS",
    "EVENT_TYPES",
    "EngineSnapshot",
    "EventLog",
    "ObsSink",
    "Timeline",
    "TimelineObserver",
    "TimelineWindow",
    "capture",
    "capture_cursor",
    "events_to_trace",
    "make_event",
    "read_events",
    "timeline_to_trace",
    "validate_event",
    "write_events",
    "write_trace",
]
