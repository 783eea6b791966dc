"""``python -m repro.campaign`` — run, inspect and export campaigns.

Subcommands::

    run     expand a campaign spec, skip cells the store already holds,
            simulate the rest (optionally across worker processes), and
            persist every fresh result
    status  summarise a store directory (and, given a spec, what remains)
    export  dump a store as CSV or JSON

The campaign can be described either inline (``--schemes banshee alloy
--workloads gcc mcf --seeds 1 2``) or by a JSON spec file (``--spec
campaign.json``, the :meth:`CampaignSpec.to_dict` format).  Inline flags
override the corresponding spec-file fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro import faults
from repro.campaign.driver import CampaignReport, run_campaign
from repro.campaign.executor import CellOutcome
from repro.campaign.export import export_csv, export_json
from repro.campaign.spec import PRESETS, CampaignSpec, SweepGrid
from repro.campaign.store import ResultStore
from repro.campaign.supervisor import (
    STALE_AFTER_SECONDS,
    SupervisorConfig,
    install_signal_handlers,
    restore_signal_handlers,
)
from repro.experiments.report import format_table
from repro.obs.events import ObsSink, read_events
from repro.sim.config import SCHEMES

#: Default mid-cell auto-snapshot interval (processed records).  Small
#: enough that a killed overnight campaign rarely loses more than a couple
#: of minutes of work per cell, large enough that snapshot writes never
#: show up in a profile; ``--snapshot-every 0`` disables.
DEFAULT_SNAPSHOT_EVERY = 100_000


def _optional_int(text: str) -> Optional[int]:
    return None if text.lower() in ("none", "default") else int(text)


def _optional_float(text: str) -> Optional[float]:
    return None if text.lower() in ("none", "default") else float(text)


def _optional_str(text: str) -> Optional[str]:
    return None if text.lower() in ("none", "default") else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel, resumable simulation campaigns with a persistent result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run (or resume) a campaign")
    run_parser.add_argument("--store", required=True, help="result store directory")
    run_parser.add_argument("--spec", help="JSON campaign spec file")
    run_parser.add_argument("--name", help="campaign name (default: spec file's name, or 'campaign')")
    run_parser.add_argument("--schemes", nargs="+",
                            help="scheme names, validated before any cell runs: "
                                 + " ".join(SCHEMES) + ". A scheme with DramCacheConfig "
                                 "overrides is a (label, scheme, overrides) entry in a --spec file")
    run_parser.add_argument("--workloads", nargs="+", help="workload names, e.g. gcc mcf pagerank")
    run_parser.add_argument("--seeds", nargs="+", type=int, help="RNG seeds")
    run_parser.add_argument("--cache-sizes", nargs="+", type=_optional_int,
                            help="in-package capacities in bytes ('default' keeps the preset)")
    run_parser.add_argument("--page-sizes", nargs="+", type=_optional_int,
                            help="DRAM-cache page sizes in bytes")
    run_parser.add_argument("--policies", nargs="+", type=_optional_str,
                            help="banshee replacement policies (fbr-sample, fbr-nosample, lru)")
    run_parser.add_argument("--sampling", nargs="+", type=_optional_float,
                            help="sampling coefficients")
    run_parser.add_argument("--records", type=int, help="trace records per core")
    run_parser.add_argument("--cores", type=int, help="simulated cores per cell")
    run_parser.add_argument("--preset", choices=PRESETS, help="base configuration preset")
    run_parser.add_argument("--scale", type=float, help="workload footprint scale")
    run_parser.add_argument("--warmup", type=float, help="warmup fraction in [0, 1)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (default 1 = serial)")
    run_parser.add_argument("--force", action="store_true",
                            help="re-simulate cells the store already holds")
    run_parser.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    run_parser.add_argument("--timeline", type=int, metavar="N",
                            help="attach an interval timeline snapshotting every N records "
                                 "(stored with each result; see python -m repro.obs)")
    run_parser.add_argument("--no-obs", action="store_true",
                            help="disable the event log under <store>/obs")
    run_parser.add_argument("--retries", type=int, default=None, metavar="N",
                            help="supervised mode: give up on a cell after N failed "
                                 "attempts (worker deaths/timeouts; default 3)")
    run_parser.add_argument("--backoff", type=float, default=None, metavar="SECONDS",
                            help="supervised mode: base retry delay, doubled per failure "
                                 "(default 0.5s, capped at 30s)")
    run_parser.add_argument("--cell-timeout", type=float, default=None, metavar="SECONDS",
                            help="revoke and retry any cell attempt running longer than "
                                 "SECONDS (default: no deadline)")
    run_parser.add_argument("--stale-after", type=float, default=None, metavar="SECONDS",
                            help="supervised mode: revoke a lease whose worker has sent "
                                 "no progress beat in SECONDS (default %.0f)"
                                 % STALE_AFTER_SECONDS)
    run_parser.add_argument("--snapshot-every", type=int, default=DEFAULT_SNAPSHOT_EVERY,
                            metavar="RECORDS",
                            help="auto-snapshot long cells every RECORDS processed records "
                                 "under <store>/obs/autosnapshots so a killed campaign "
                                 "resumes mid-cell (default %d; 0 disables)"
                                 % DEFAULT_SNAPSHOT_EVERY)
    run_parser.add_argument("--inject", metavar="PLAN",
                            help="fault-injection plan for robustness testing, e.g. "
                                 "'kill@cell=3' or 'hang@records=10k' "
                                 "(see repro.faults; fires once per trigger, globally)")

    status_parser = sub.add_parser("status", help="summarise a store directory")
    status_parser.add_argument("--store", required=True)
    status_parser.add_argument("--spec", help="JSON spec file: also report pending cells")
    status_parser.add_argument("--live", action="store_true",
                               help="show in-flight cells from the event log under <store>/obs")
    status_parser.add_argument("--poll", type=float, default=0.0, metavar="SECONDS",
                               help="with --live: refresh every SECONDS until the campaign ends")
    status_parser.add_argument("--stale-after", type=float, default=None, metavar="SECONDS",
                               help="with --live: workers whose last event is older than "
                                    "SECONDS count as stale (default %.0f); stale workers are "
                                    "listed by id"
                                    % STALE_AFTER_SECONDS)

    export_parser = sub.add_parser("export", help="dump a store as CSV or JSON")
    export_parser.add_argument("--store", required=True)
    export_parser.add_argument("--format", choices=("csv", "json"), default="csv")
    export_parser.add_argument("--output", help="output file (default: stdout)")
    return parser


def load_spec_file(path: str) -> CampaignSpec:
    """Load a :meth:`CampaignSpec.to_dict`-format JSON spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return CampaignSpec.from_dict(json.load(handle))


def spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the campaign spec from ``--spec`` and/or inline flags."""
    payload = {}
    if args.spec:
        payload = load_spec_file(args.spec).to_dict()

    grid_fields = {
        "schemes": args.schemes,
        "workloads": args.workloads,
        "seeds": args.seeds,
        "cache_sizes": args.cache_sizes,
        "page_sizes": args.page_sizes,
        "replacement_policies": args.policies,
        "sampling_coefficients": args.sampling,
    }
    grid_overrides = {name: value for name, value in grid_fields.items() if value is not None}
    spec_fields = {
        "name": args.name,
        "records_per_core": args.records,
        "num_cores": args.cores,
        "preset": args.preset,
        "scale": args.scale,
        "warmup_fraction": args.warmup,
        "timeline_interval": getattr(args, "timeline", None),
        "cell_timeout_seconds": getattr(args, "cell_timeout", None),
    }
    for name, value in spec_fields.items():
        if value is not None:
            payload[name] = value
    payload.setdefault("name", "campaign")

    if grid_overrides:
        grids = payload.get("grids") or [{}]
        payload["grids"] = [dict(grid, **grid_overrides) for grid in grids]
    payload.setdefault("grids", [SweepGrid().to_dict()])
    return CampaignSpec.from_dict(payload)


def _format_duration(seconds: float) -> str:
    """Compact duration for progress lines: ``42s``, ``3m05s``, ``1h02m``."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _print_progress(
    done: int, total: int, outcome: CellOutcome, stream: TextIO, start: Optional[float] = None
) -> None:
    if outcome.from_store:
        status = "store"
    elif outcome.ok:
        status = f"{outcome.wall_seconds:.2f}s"
    else:
        status = "ERROR"
    timing = ""
    if start is not None and done:
        elapsed = time.perf_counter() - start
        # Naive per-cell average: good enough to answer "tonight or tomorrow?".
        eta = elapsed / done * (total - done)
        timing = f"  ({_format_duration(elapsed)} elapsed, eta {_format_duration(eta)})"
    print(f"  [{done}/{total}] {outcome.cell.describe():<40s} {status}{timing}", file=stream)


def _report_table(report: CampaignReport) -> str:
    rows = []
    for outcome in report.outcomes:
        if not outcome.ok:
            continue
        summary = outcome.result.summary()
        rows.append([
            outcome.cell.label,
            outcome.cell.workload,
            outcome.cell.seed,
            summary["ipc"],
            summary["miss_rate"],
            summary["mpki"],
            summary["in_bpi"],
            summary["off_bpi"],
            "store" if outcome.from_store else "run",
        ])
    headers = ["scheme", "workload", "seed", "ipc", "miss_rate", "mpki", "in_bpi", "off_bpi", "source"]
    return format_table(headers, rows, title=f"Campaign '{report.spec.name}'")


def _supervisor_config(args: argparse.Namespace) -> Optional[SupervisorConfig]:
    """Build a :class:`SupervisorConfig` from CLI overrides (None = defaults)."""
    overrides: Dict[str, Any] = {}
    if args.retries is not None:
        overrides["max_attempts"] = args.retries
    if args.backoff is not None:
        overrides["backoff_base"] = args.backoff
    if args.stale_after is not None:
        overrides["stale_after"] = args.stale_after
    return SupervisorConfig(**overrides) if overrides else None


def cmd_run(args: argparse.Namespace, stream: TextIO) -> int:
    spec = spec_from_args(args)
    # Expanding builds every cell's configuration, so an invalid one fails
    # here, before the store and its obs directory are created.
    cells = spec.cells()
    store = ResultStore(args.store)
    obs = None if args.no_obs else ObsSink.for_directory(Path(args.store) / "obs")
    if args.inject:
        # Deterministic chaos: the plan rides the environment into workers
        # and fire-once claims live under the store's obs directory.
        faults.install(args.inject, state_dir=str(Path(args.store) / "obs" / "faults"))
        print(f"fault injection active: {args.inject}", file=stream)
    start = time.perf_counter()
    progress = None if args.quiet else (
        lambda d, t, o: _print_progress(d, t, o, stream, start=start)
    )
    print(f"campaign '{spec.name}': {spec.num_cells} cells -> {store.path}", file=stream)
    errored = set(store.error_keys())
    if errored:
        retrying = sum(1 for cell in cells if cell.key() in errored)
        if retrying:
            print(f"retrying {retrying} previously errored cell(s)", file=stream)
    if obs is not None:
        print(f"obs: {obs.events_path} (watch with: status --store {args.store} --live)",
              file=stream)
    previous_handlers = install_signal_handlers()
    try:
        report = run_campaign(spec, store=store, workers=args.workers, progress=progress,
                              force=args.force, obs=obs,
                              supervisor=_supervisor_config(args),
                              snapshot_every=args.snapshot_every or None)
    except KeyboardInterrupt:
        # Serial path interrupts land here (the supervised executor converts
        # its own cleanup into a report with interrupted=True); completed
        # cells are already persisted, so resuming is just re-running.
        print("\ninterrupted — completed cells are persisted; re-run to resume",
              file=stream)
        return 130
    finally:
        restore_signal_handlers(previous_handlers)
    counts = report.counts()
    print(file=stream)
    print(_report_table(report), file=stream)
    print(file=stream)
    print(
        f"done: {counts['total']} cells, {counts['simulated']} simulated, "
        f"{counts['from_store']} from store, {counts['errors']} errors",
        file=stream,
    )
    for outcome in report.errors:
        print(f"\nERROR in {outcome.cell.describe()}:\n{outcome.error}", file=stream)
    if report.interrupted:
        print("\ninterrupted — completed cells are persisted; re-run to resume",
              file=stream)
        return 130
    return 1 if report.errors else 0


#: Events a worker process emits about itself (each names its ``worker``).
_WORKER_EVENTS = ("cell_start", "heartbeat", "cell_finish", "cell_error")


def pid_alive(pid: object) -> bool:
    """Whether ``pid`` names a live process on this host.

    ``os.kill(pid, 0)`` probes without signalling; ``EPERM`` means the
    process exists but belongs to someone else, which still counts as
    alive.  Anything unparseable reads as dead.
    """
    try:
        pid_int = int(pid)  # type: ignore[arg-type, call-overload]
    except (TypeError, ValueError):
        return False
    if pid_int <= 0:
        return False
    try:
        os.kill(pid_int, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _print_live(obs_dir: Path, stream: TextIO,
                stale_after: Optional[float] = None) -> bool:
    """One live telemetry snapshot from the event log; True once ended."""
    stale_after = STALE_AFTER_SECONDS if stale_after is None else stale_after
    events_path = obs_dir / "events.jsonl"
    records = read_events(events_path)
    last_start = -1
    for index, record in enumerate(records):
        if record.get("event") == "campaign_start":
            last_start = index
    campaign = records[last_start] if last_start >= 0 else None
    finished = errors = retries = quarantined = revoked = 0
    walls: List[float] = []
    ended = False
    end_status = None
    # (worker, pid) -> first and last event time, cells done, cell in flight
    workers: Dict[Tuple[object, object], Dict[str, Any]] = {}
    for record in records[last_start + 1:]:
        event = record.get("event")
        if event == "cell_finish":
            finished += 1
            walls.append(float(record.get("wall_seconds", 0.0)))
        elif event == "cell_error":
            errors += 1
        elif event == "cell_retry":
            retries += 1
        elif event == "cell_quarantined":
            quarantined += 1
        elif event == "lease_revoked":
            revoked += 1
        elif event == "campaign_end":
            ended = True
            end_status = record.get("status")
        if event in _WORKER_EVENTS:
            ts = record.get("ts", 0.0)
            worker = workers.setdefault((record.get("worker"), record.get("pid")), {
                "name": record.get("worker"), "first": ts, "done": 0,
            })
            worker["last"] = ts
            worker["cell"] = record.get("cell") if event in ("cell_start", "heartbeat") else None
            if event == "cell_finish":
                worker["done"] += 1

    # A worker whose pid is gone is a dead worker's leftover, not a live
    # one — a SIGKILLed campaign must not show ghost workers forever.
    now = time.time()
    alive = [worker for (_name, pid), worker in workers.items() if pid_alive(pid)]
    live = [worker for worker in alive if now - worker["last"] <= stale_after]
    stale = [worker for worker in alive if now - worker["last"] > stale_after]

    stamp = time.strftime("%H:%M:%S", time.localtime(now))
    if campaign is not None:
        pending = int(campaign.get("pending", 0))
        remaining = max(0, pending - finished - errors)
        line = (f"[{stamp}] campaign '{campaign.get('name')}': "
                f"{finished}/{pending} done, {errors} errors, {remaining} remaining")
        if ended:
            line += " — finished" if end_status in (None, "completed") else f" — {end_status}"
        elif walls and remaining:
            eta = remaining * (sum(walls) / len(walls)) / max(1, len(live))
            line += f", eta {_format_duration(eta)}"
        print(line, file=stream)
        if revoked or retries or quarantined:
            print(f"recoveries: {revoked} lease(s) revoked, {retries} retried, "
                  f"{quarantined} quarantined", file=stream)
    else:
        print(f"[{stamp}] no campaign_start event in {events_path}", file=stream)

    if live:
        rows = [[worker["name"], "running" if worker["cell"] else "idle", worker["cell"] or "-",
                 worker["done"], _format_duration(now - worker["first"])]
                for worker in sorted(live, key=lambda w: str(w["name"]))]
        print(format_table(["worker", "state", "in-flight cell", "done", "up"], rows),
              file=stream)
    elif not ended:
        print("no live workers", file=stream)
    if stale and not ended:
        names = ", ".join(sorted(str(worker["name"]) for worker in stale))
        print(f"stale workers (no event in >{stale_after:.0f}s): {names}", file=stream)
    return ended


def cmd_status(args: argparse.Namespace, stream: TextIO) -> int:
    store = ResultStore(args.store, create=False)
    if args.live:
        obs_dir = Path(args.store) / "obs"
        while True:
            ended = _print_live(obs_dir, stream, stale_after=args.stale_after)
            if ended or not args.poll:
                return 0
            time.sleep(args.poll)
    info = store.status()
    print(f"store: {info['path']}", file=stream)
    print(f"cells: {info['cells']}", file=stream)
    if info["errors"]:
        suffix = ""
        if info.get("poisoned"):
            suffix = f", {info['poisoned']} quarantined as poisoned"
        print(f"errors: {info['errors']} (retried on the next run{suffix})", file=stream)
    if info.get("corrupt_lines"):
        print(f"warning: {info['corrupt_lines']} unparseable store line(s) skipped "
              "(crash mid-append?)", file=stream)
    if info["by_scheme"] or info["errors_by_scheme"]:
        schemes = sorted(set(info["by_scheme"]) | set(info["errors_by_scheme"]))
        rows = [[scheme, info["by_scheme"].get(scheme, 0),
                 info["errors_by_scheme"].get(scheme, 0)] for scheme in schemes]
        print(file=stream)
        print(format_table(["scheme", "cells", "errors"], rows), file=stream)
    if info["by_workload"] or info["errors_by_workload"]:
        workloads = sorted(set(info["by_workload"]) | set(info["errors_by_workload"]))
        rows = [[workload, info["by_workload"].get(workload, 0),
                 info["errors_by_workload"].get(workload, 0)] for workload in workloads]
        print(file=stream)
        print(format_table(["workload", "cells", "errors"], rows), file=stream)
    if args.spec:
        spec = load_spec_file(args.spec)
        pending = sum(1 for cell in spec.cells() if cell.key() not in store)
        print(file=stream)
        print(f"spec '{spec.name}': {spec.num_cells} cells, {pending} pending", file=stream)
    return 0


def cmd_export(args: argparse.Namespace, stream: TextIO) -> int:
    store = ResultStore(args.store, create=False)
    exporter = export_csv if args.format == "csv" else export_json
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            exporter(store, handle)
        print(f"wrote {len(store)} rows to {args.output}", file=stream)
    else:
        stream.write(exporter(store))
    return 0


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, stream)
        if args.command == "status":
            return cmd_status(args, stream)
        return cmd_export(args, stream)
    except (ValueError, OSError) as exc:
        # Spec/config validation raises loudly (bad scheme, warmup out of
        # range, unreadable spec file); surface it as a CLI error, not a
        # traceback.  Per-cell simulation errors never get here — the
        # executor captures those and cmd_run reports them.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
