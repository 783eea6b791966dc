"""Observability: interval-timeline metrics, run events, live telemetry.

The layer every other subsystem reports through (the package exports
nothing; import from its modules):

* :mod:`repro.obs.timeline` — :class:`~repro.obs.timeline.TimelineObserver`
  reads windowed metric deltas at engine edges during a run, yielding a
  :class:`~repro.obs.timeline.Timeline` attached to
  ``SimulationResults.timeline`` (exact CSV round-trip);
* :mod:`repro.obs.events` — append-only JSONL event logs
  (:class:`~repro.obs.events.EventLog`) with schema validation, plus
  :class:`~repro.obs.events.ObsSink` naming a campaign's event log, which
  ``python -m repro.campaign status --live`` reads;
* :mod:`repro.obs.snapshot` — :class:`~repro.obs.snapshot.EngineSnapshot`
  pickles the whole system at a record boundary; restoring resumes
  bit-identically in every engine mode (and backs campaign mid-cell
  auto-snapshots), and :func:`~repro.obs.snapshot.state_view` renders it
  as diffable JSON;
* :mod:`repro.obs.export_chrome` — Chrome trace-event JSON export of
  timelines and event logs (open in Perfetto);
* ``python -m repro.obs`` (:mod:`repro.obs.cli`) summarizes, exports and
  replays all of the above.
"""
