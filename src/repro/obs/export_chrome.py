"""Export telemetry as Chrome trace-event JSON (viewable in Perfetto).

Two timebases, two entry points:

* :func:`timeline_to_trace` — **record-count timebase**.  One trace
  microsecond equals one processed record, so the horizontal axis is the
  deterministic simulation axis every other repro artefact uses.  Each
  :class:`~repro.obs.timeline.TimelineWindow` becomes an ``X`` (complete)
  slice carrying its metrics as args, plus ``C`` counter tracks for hit
  ratio, bandwidth split and TLB miss ratio.  A ``warmup_end`` instant
  marks where the first measured window opens.

* :func:`events_to_trace` — **wall-clock timebase**.  For event logs alone
  (e.g. a campaign's ``<store>/obs/events.jsonl``): start/end pairs are
  folded into ``X`` slices per emitting process (``run_start``/``run_end``,
  ``cell_start``/``cell_finish``, ``campaign_start``/``campaign_end``) and
  everything else becomes an instant.  Timestamps are microseconds relative
  to the earliest event, one Perfetto process row per worker pid.

Both return ``{"traceEvents": [...]}`` — the JSON-object trace format that
``ui.perfetto.dev`` and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.timeline import Timeline

#: start-event -> (end events, slice name) pairs folded into spans.
_SPAN_PAIRS = {
    "run_start": (("run_end",), "run"),
    "cell_start": (("cell_finish", "cell_error"), "cell"),
    "campaign_start": (("campaign_end",), "campaign"),
}
_SPAN_ENDS = {end: start for start, (ends, _) in _SPAN_PAIRS.items() for end in ends}

#: Process/thread ids used on the record-count axis.
_PID_TIMELINE = 1
_TID_WINDOWS = 1
_TID_MARKS = 2


def _meta(pid: int, name: str, tid: Optional[int] = None,
          thread_name: Optional[str] = None) -> List[Dict[str, Any]]:
    """Perfetto ``M`` metadata events naming a process (and thread) row."""
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": name},
    }]
    if tid is not None and thread_name is not None:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": thread_name},
        })
    return events


def timeline_to_trace(timeline: Any, label: str = "simulation") -> Dict[str, Any]:
    """Render a timeline on the record axis.

    One trace microsecond = one processed record.  ``timeline`` is a
    :class:`~repro.obs.timeline.Timeline` or its dict form (what
    ``SimulationResults.timeline`` holds).  When warmup windows precede the
    first measured one, a ``warmup_end`` instant marks its start: the
    observer forces a window boundary at the warmup edge, so that is the
    processed count the engine's ``warmup_end`` event carries.
    """
    if isinstance(timeline, dict):
        timeline = Timeline.from_dict(timeline)
    trace: List[Dict[str, Any]] = []
    trace.extend(_meta(_PID_TIMELINE, f"{label} (1 us = 1 record)",
                       _TID_WINDOWS, "windows"))
    trace.extend(_meta(_PID_TIMELINE, f"{label} (1 us = 1 record)",
                       _TID_MARKS, "marks"))
    for window in timeline.windows:
        trace.append({
            "ph": "X",
            "name": window.phase,
            "cat": "timeline",
            "pid": _PID_TIMELINE,
            "tid": _TID_WINDOWS,
            "ts": window.start_record,
            "dur": max(window.records, 1),
            "args": {
                "index": window.index,
                "records": window.records,
                "hit_ratio": round(window.hit_ratio, 6),
                "off_fraction": round(window.off_fraction, 6),
                "tlb_miss_ratio": round(window.tlb_miss_ratio, 6),
                "instructions": window.instructions,
                "cycles": window.cycles,
                "in_bytes": window.in_bytes,
                "off_bytes": window.off_bytes,
                "writeback_bytes": window.writeback_bytes,
                "llc_misses": window.llc_misses,
                "llc_writebacks": window.llc_writebacks,
            },
        })
        counter_common = {"ph": "C", "cat": "timeline", "pid": _PID_TIMELINE,
                          "tid": 0, "ts": window.start_record}
        trace.append(dict(counter_common, name="dram_cache_hit_ratio",
                          args={"hit_ratio": round(window.hit_ratio, 6)}))
        trace.append(dict(counter_common, name="bandwidth_bytes",
                          args={"in_package": window.in_bytes,
                                "off_package": window.off_bytes,
                                "writeback": window.writeback_bytes}))
        trace.append(dict(counter_common, name="tlb_miss_ratio",
                          args={"tlb_miss_ratio": round(window.tlb_miss_ratio, 6)}))
    measured = timeline.measured
    if measured and timeline.warmup:
        start = measured[0].start_record
        trace.append({
            "ph": "i",
            "name": "warmup_end",
            "cat": "events",
            "pid": _PID_TIMELINE,
            "tid": _TID_MARKS,
            "ts": start,
            "s": "t",
            "args": {"records": start},
        })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def events_to_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Render an event log on wall-clock time, one process row per pid.

    Start/end pairs (see module docstring) fold into ``X`` slices; an
    unmatched start (crash, truncated log) degrades to an instant rather
    than being dropped.  Timestamps are microseconds relative to the
    earliest event so traces start at zero.
    """
    ordered = sorted(
        (record for record in records if "ts" in record and "event" in record),
        key=lambda record: record["ts"],
    )
    if not ordered:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = ordered[0]["ts"]
    trace: List[Dict[str, Any]] = []
    pids = []
    # Open spans: (pid, start event, span key) -> (ts_us, args).
    open_spans: Dict[Tuple[int, str, Any], Tuple[float, Dict[str, Any]]] = {}
    for record in ordered:
        pid = int(record.get("pid", 0))
        if pid not in pids:
            pids.append(pid)
        ts_us = (record["ts"] - base) * 1e6
        event = str(record["event"])
        args = {key: value for key, value in record.items()
                if key not in ("ts", "pid", "event")}
        if event in _SPAN_PAIRS:
            span_key = (pid, event, args.get("key") or args.get("cell"))
            open_spans[span_key] = (ts_us, args)
            continue
        start_event = _SPAN_ENDS.get(event)
        if start_event is not None:
            span_key = (pid, start_event, args.get("key") or args.get("cell"))
            opened = open_spans.pop(span_key, None)
            if opened is None and span_key[2] is not None:
                # End without identity match: fall back to any open span of
                # this type in the same process (older logs omit the key).
                span_key = (pid, start_event, None)
                opened = open_spans.pop(span_key, None)
            if opened is not None:
                start_us, start_args = opened
                merged = dict(start_args)
                merged.update(args)
                name = _SPAN_PAIRS[start_event][1]
                detail = merged.get("workload") or merged.get("cell") or merged.get("key")
                if detail:
                    name = f"{name}:{detail}"
                if event == "cell_error":
                    name = f"{name} (error)"
                trace.append({
                    "ph": "X", "name": name, "cat": "events", "pid": pid,
                    "tid": 1, "ts": start_us, "dur": max(ts_us - start_us, 1.0),
                    "args": merged,
                })
                continue
        trace.append({
            "ph": "i", "name": event, "cat": "events", "pid": pid,
            "tid": 2, "ts": ts_us, "s": "t", "args": args,
        })
    # Unmatched starts (still open at end of log) degrade to instants.
    for (pid, start_event, _key), (ts_us, args) in open_spans.items():
        trace.append({
            "ph": "i", "name": f"{start_event} (unclosed)", "cat": "events",
            "pid": pid, "tid": 2, "ts": ts_us, "s": "t", "args": args,
        })
    for pid in pids:
        trace.extend(_meta(pid, f"pid {pid}", 1, "spans"))
        trace.extend(_meta(pid, f"pid {pid}", 2, "marks"))
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_trace(trace: Dict[str, Any], path: Any) -> int:
    """Write a trace dict as JSON; returns the number of trace events."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return len(trace.get("traceEvents", []))
