"""``python -m repro.obs`` — summarize, export and replay runs.

Subcommands::

    summarize      describe an event log, a timeline file, a store's timelines,
                   or an engine snapshot
    export         export stored timelines as CSV
    export-chrome  render a timeline or an event log as Chrome trace JSON (Perfetto)
    replay         rebuild an engine from a snapshot and re-run the remainder

Timelines come out of ``SimulationResults.timeline`` (attach a
:class:`~repro.obs.timeline.TimelineObserver`, or pass ``--timeline N`` to
``python -m repro.campaign run``); event logs are written by the engine,
the campaign executors and the driver (``<store>/obs/events.jsonl``);
snapshots are a campaign's mid-cell auto-snapshots
(``<store>/obs/autosnapshots``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.events import read_events
from repro.obs.timeline import Timeline, TimelineObserver


def build_parser() -> argparse.ArgumentParser:
    from repro.sim.engine import DEFAULT_ENGINE_MODE, ENGINE_MODES

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize and export run telemetry (timelines + event logs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize",
                               help="describe an event log, timeline, store, or snapshot")
    group = summarize.add_mutually_exclusive_group(required=True)
    group.add_argument("--events", help="JSONL event log path")
    group.add_argument("--timeline", help="timeline CSV path")
    group.add_argument("--store", help="result-store directory: summarize stored timelines")
    group.add_argument("--snapshot", help="engine snapshot JSON: its envelope "
                                          "(with --json, plus a diffable state view)")
    summarize.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    export = sub.add_parser("export", help="export stored timelines as CSV")
    export.add_argument("--store", required=True, help="result-store directory")
    export.add_argument("--label", help="filter: scheme label")
    export.add_argument("--workload", help="filter: workload name")
    export.add_argument("--seed", type=int, help="filter: RNG seed")
    export.add_argument("--all", action="store_true",
                        help="export every matching cell as one long-format table "
                             "(default: filters must select exactly one cell)")
    export.add_argument("--output", help="output file (default: stdout)")

    chrome = sub.add_parser(
        "export-chrome",
        help="export telemetry as Chrome trace-event JSON (open in ui.perfetto.dev)",
    )
    source = chrome.add_mutually_exclusive_group(required=True)
    source.add_argument("--timeline", help="timeline CSV; record-count axis")
    source.add_argument("--store", help="result-store directory: pick one stored timeline")
    source.add_argument("--events", help="JSONL event log; wall-clock axis")
    chrome.add_argument("--label", help="filter: scheme label (with --store)")
    chrome.add_argument("--workload", help="filter: workload name (with --store)")
    chrome.add_argument("--seed", type=int, help="filter: RNG seed (with --store)")
    chrome.add_argument("--output", required=True, help="trace JSON output path")

    replay = sub.add_parser(
        "replay", help="restore an engine snapshot and re-run the remainder"
    )
    replay.add_argument("snapshot", help="snapshot JSON (e.g. an auto-snapshot under "
                                         "<store>/obs/autosnapshots)")
    replay.add_argument("--records", type=int, required=True,
                        help="records per core of the ORIGINAL run (resume target)")
    replay.add_argument("--warmup", type=int, default=0,
                        help="warmup records per core of the original run")
    replay.add_argument("--engine", choices=ENGINE_MODES,
                        help=f"engine mode (default: {DEFAULT_ENGINE_MODE})")
    replay.add_argument("--scale", type=float,
                        help="workload scale of the original run (required when the "
                             "snapshot metadata records none)")
    replay.add_argument("--timeline", type=int,
                        help="attach a TimelineObserver with this interval")
    replay.add_argument("--timeline-output", help="write the replay timeline here (CSV)")
    return parser


# ---------------------------------------------------------------- summarize


def _load_timeline_file(path: str) -> Timeline:
    return Timeline.from_csv(Path(path).read_text(encoding="utf-8"))


def _summarize_events(path: str) -> Dict[str, object]:
    if not Path(path).exists():
        raise ValueError(f"no event log at {path}")
    records = read_events(path, validate=True)
    by_type: Dict[str, int] = {}
    for record in records:
        by_type[record["event"]] = by_type.get(record["event"], 0) + 1
    errors = [record for record in records if record["event"] == "cell_error"]
    span = (records[-1]["ts"] - records[0]["ts"]) if len(records) > 1 else 0.0
    return {
        "path": path,
        "events": len(records),
        "by_type": dict(sorted(by_type.items())),
        "span_seconds": round(span, 3),
        "errors": [
            {"key": record.get("key"), "cell": record.get("cell"),
             "error": record.get("error")}
            for record in errors
        ],
    }


def _stored_timelines(store_dir: str, label: Optional[str] = None,
                      workload: Optional[str] = None, seed: Optional[int] = None) -> List[Dict]:
    """``{key, meta, timeline}`` entries for the store cells that captured a timeline."""
    from repro.campaign.store import ResultStore
    from repro.sim.results import SimulationResults

    store = ResultStore(store_dir, create=False)
    selected: List[Dict] = []
    for record in store.records():
        if "result" not in record:
            continue
        payload = record["result"]
        if not payload.get("timeline"):
            continue
        meta = record.get("meta", {})
        if label is not None and meta.get("label") != label:
            continue
        if workload is not None and meta.get("workload") != workload:
            continue
        if seed is not None and meta.get("seed") != seed:
            continue
        result = SimulationResults.from_dict(payload)
        selected.append({
            "key": record["key"],
            "meta": meta,
            "timeline": Timeline.from_dict(result.timeline),
        })
    return selected


def _summarize_snapshot(path: str, as_json: bool, stream) -> int:
    from repro.obs.snapshot import EngineSnapshot, state_view

    snapshot = EngineSnapshot.load(path)
    if as_json:
        payload = dict(snapshot.to_dict(), view=state_view(snapshot.load_system()))
        del payload["system"]  # the pickle itself; the view replaces it
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return 0
    print(f"snapshot: {path}", file=stream)
    for key, value in snapshot.summary().items():
        print(f"  {key:<20s} {value}", file=stream)
    return 0


def cmd_summarize(args: argparse.Namespace, stream) -> int:
    if args.snapshot:
        return _summarize_snapshot(args.snapshot, args.json, stream)
    if args.events:
        info = _summarize_events(args.events)
        if args.json:
            json.dump(info, stream, indent=2, sort_keys=True)
            stream.write("\n")
            return 0
        print(f"events: {info['events']} ({info['path']})", file=stream)
        print(f"span: {info['span_seconds']} s", file=stream)
        for event, count in info["by_type"].items():
            print(f"  {event:<16s} {count}", file=stream)
        for error in info["errors"]:
            print(f"  ERROR {error['cell'] or error['key']}: "
                  f"{(error['error'] or '').splitlines()[0] if error['error'] else '?'}",
                  file=stream)
        return 0
    if args.timeline:
        timeline = _load_timeline_file(args.timeline)
        info = dict(timeline.summary(), path=args.timeline)
        if args.json:
            json.dump(info, stream, indent=2, sort_keys=True)
            stream.write("\n")
            return 0
        print(f"timeline: {args.timeline}", file=stream)
        for key, value in info.items():
            if key != "path":
                print(f"  {key:<18s} {value}", file=stream)
        return 0
    entries = _stored_timelines(args.store)
    rows = [
        dict({"key": entry["key"][:12],
              "label": entry["meta"].get("label", "?"),
              "workload": entry["meta"].get("workload", "?"),
              "seed": entry["meta"].get("seed", "?")},
             **entry["timeline"].summary())
        for entry in entries
    ]
    if args.json:
        json.dump(rows, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return 0
    print(f"store {args.store}: {len(rows)} cell(s) with timelines", file=stream)
    for row in rows:
        print(f"  {row['label']}/{row['workload']} seed={row['seed']}: "
              f"{row['measured_windows']} windows, hit ratio "
              f"{row['hit_ratio_min']:.3f}..{row['hit_ratio_max']:.3f}", file=stream)
    return 0


# ------------------------------------------------------------------- export


#: Identity columns prefixed to long-format (--all) exports.
_IDENTITY_COLUMNS = ("label", "workload", "seed", "key")


def _long_format_csv(entries: List[Dict]) -> str:
    import csv as _csv
    import io

    from repro.obs.timeline import _CSV_COLUMNS

    buffer = io.StringIO()
    writer = _csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(_IDENTITY_COLUMNS) + list(_CSV_COLUMNS))
    for entry in entries:
        meta = entry["meta"]
        identity = [meta.get("label", ""), meta.get("workload", ""),
                    meta.get("seed", ""), entry["key"]]
        for window in entry["timeline"].windows:
            row = window.to_dict()
            writer.writerow(identity + [row[column] for column in _CSV_COLUMNS])
    return buffer.getvalue()


def _matching_timelines(args: argparse.Namespace) -> List[Dict]:
    """The stored timelines ``args``' filters select; ValueError when none."""
    entries = _stored_timelines(args.store, label=args.label,
                                workload=args.workload, seed=args.seed)
    if not entries:
        raise ValueError(f"no stored timelines match in {args.store} "
                         "(run cells with --timeline N to capture them)")
    return entries


def _single(entries: List[Dict], alternative: str = "") -> Dict:
    """The only entry of ``entries``; ValueError naming every match otherwise."""
    if len(entries) > 1:
        matches = ", ".join(
            f"{e['meta'].get('label', '?')}/{e['meta'].get('workload', '?')}"
            f" seed={e['meta'].get('seed', '?')}" for e in entries
        )
        raise ValueError(f"{len(entries)} cells match ({matches}); narrow with "
                         f"--label/--workload/--seed{alternative}")
    return entries[0]


def cmd_export(args: argparse.Namespace, stream) -> int:
    entries = _matching_timelines(args)
    if args.all:
        text = _long_format_csv(entries)
    else:
        text = _single(entries, " or pass --all for a combined table")["timeline"].to_csv()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}", file=stream)
    else:
        stream.write(text)
    return 0


# ----------------------------------------------------------- export-chrome


def cmd_export_chrome(args: argparse.Namespace, stream) -> int:
    from repro.obs.export_chrome import events_to_trace, timeline_to_trace, write_trace

    if args.events:
        records = read_events(args.events)
        if not records:
            raise ValueError(f"no events in {args.events}")
        trace = events_to_trace(records)
        axis = "wall-clock axis"
    else:
        trace = timeline_to_trace(*_chrome_timeline(args))
        axis = "record-count axis (1 us = 1 record)"
    count = write_trace(trace, args.output)
    print(f"wrote {count} trace events to {args.output} on the {axis}; "
          "open in ui.perfetto.dev or chrome://tracing", file=stream)
    return 0


def _chrome_timeline(args: argparse.Namespace) -> Tuple[Timeline, str]:
    """The (timeline, label) ``export-chrome --timeline/--store`` renders."""
    if args.timeline:
        return _load_timeline_file(args.timeline), "simulation"
    entry = _single(_matching_timelines(args))
    meta = entry["meta"]
    return entry["timeline"], f"{meta.get('label', '?')}/{meta.get('workload', '?')}"


# ------------------------------------------------------------------- replay


def cmd_replay(args: argparse.Namespace, stream) -> int:
    from repro.obs.snapshot import EngineSnapshot
    from repro.sim.config import config_from_dict
    from repro.sim.engine import SimulationEngine
    from repro.sim.system import System
    from repro.workloads.registry import get_workload

    if args.timeline_output and not args.timeline:
        raise ValueError("--timeline-output requires --timeline N")
    snapshot = EngineSnapshot.load(args.snapshot)
    meta = snapshot.workload or {}
    if "name" not in meta:
        raise ValueError(f"snapshot {args.snapshot} carries no workload name; "
                         "replay needs workload metadata to rebuild the streams")
    name = str(meta["name"])
    config = config_from_dict(snapshot.config)
    if args.scale is not None:
        scale = args.scale
    elif "scale" in meta:
        scale = float(meta["scale"])
    else:
        raise ValueError(f"snapshot {args.snapshot} records no workload scale; "
                         f"pass --scale with the scale of the original {name} run")
    workload = get_workload(
        name,
        int(meta.get("num_cores", config.num_cores)),
        scale=scale,
        seed=int(meta.get("seed", config.seed)),
        page_size=int(meta.get("page_size", config.dram_cache.page_size)),
    )
    engine = SimulationEngine(System(config, workload), mode=args.engine)
    engine.restore(snapshot)
    resumed_at = snapshot.progress["processed"]
    print(f"replaying {name}/{engine.system.scheme.name} from record "
          f"{resumed_at} to {args.records} per core "
          f"({engine.mode} engine)", file=stream)
    observer = TimelineObserver(args.timeline) if args.timeline else None
    result = engine.run(
        args.records, warmup_records_per_core=args.warmup, observer=observer
    )
    payload = {
        "snapshot": args.snapshot,
        "resumed_at_record": resumed_at,
        "records_processed": engine.records_processed,
        "summary": result.summary(),
    }
    json.dump(payload, stream, indent=2, sort_keys=True, default=str)
    stream.write("\n")
    if observer is not None and args.timeline_output:
        Path(args.timeline_output).write_text(observer.timeline.to_csv(), encoding="utf-8")
        print(f"wrote replay timeline to {args.timeline_output}", file=stream)
    return 0


def main(argv: Optional[List[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return cmd_summarize(args, stream)
        if args.command == "export-chrome":
            return cmd_export_chrome(args, stream)
        if args.command == "replay":
            return cmd_replay(args, stream)
        return cmd_export(args, stream)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
