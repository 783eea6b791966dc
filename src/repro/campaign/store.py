"""Persistent, append-only result store.

The store is a directory holding one ``results.jsonl`` file.  Each line is a
self-contained JSON record — a completed result::

    {"key": <sha256>, "meta": {...sweep coordinates...}, "result": {...}}

or a failed-cell outcome::

    {"key": <sha256>, "meta": {...sweep coordinates...}, "error": "..."}

Keys are content hashes produced by
:meth:`repro.experiments.runner.CampaignCell.key` — they cover the full
system configuration plus workload identity, so two campaigns (or a campaign
and a figure function) that describe the same simulation share the same key
and the second one is served from disk.

Error records make failures first-class: ``status`` reports failure counts
per scheme/workload, and because :meth:`get` / ``in`` treat an errored key
as *absent*, a re-run retries the cell instead of skipping it — a later
success simply overwrites the error (append-only, last line per key wins).

Append-only JSONL keeps writes crash-safe: an interrupted campaign loses at
most its in-flight line (truncated trailing lines are skipped on load), and
everything already written survives for the next ``run`` to resume from.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro import faults
from repro.sim.results import SimulationResults

RESULTS_FILENAME = "results.jsonl"


class ResultStore:
    """On-disk simulation-result store backing campaigns and figure caches."""

    def __init__(self, directory: Union[str, Path], create: bool = True) -> None:
        """Open (and by default create) the store at ``directory``.

        ``create=False`` opens an existing store only — read-only consumers
        (``status``/``export``) use it so a mistyped path errors instead of
        silently materialising an empty store.
        """
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise ValueError(f"no result store at {self.directory}")
        self.path = self.directory / RESULTS_FILENAME
        self._index: Dict[str, Dict] = {}
        #: Unparseable lines skipped on load — nonzero after a crash
        #: mid-append (normally exactly the one truncated trailing line).
        self.corrupt_lines = 0
        self._puts = 0
        self._needs_newline = False
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        # A crash mid-append can leave the file without a trailing newline;
        # appending straight after it would corrupt the *next* (good)
        # record by gluing it onto the half line.  Note the repair needed
        # and apply it lazily on the first write, so read-only consumers
        # (status/export) never mutate the file.
        with self.path.open("rb") as raw:
            raw.seek(0, os.SEEK_END)
            if raw.tell() > 0:
                raw.seek(-1, os.SEEK_END)
                self._needs_newline = raw.read(1) != b"\n"
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves at most one truncated line;
                    # everything before it is intact.  Tolerate it (the cell
                    # it belonged to reads as absent, so a re-run redoes it)
                    # but tell the operator something died mid-write.
                    self.corrupt_lines += 1
                    continue
                if isinstance(record, dict) and "key" in record and (
                    "result" in record or "error" in record
                ):
                    # Last line per key wins: a retried cell's success
                    # replaces its earlier error record (and vice versa).
                    self._index[record["key"]] = record
        if self.corrupt_lines:
            warnings.warn(
                f"result store {self.path} contained {self.corrupt_lines} "
                "unparseable line(s) — likely a crash mid-append; the "
                "affected cell(s) will be re-simulated on the next run",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------ lookups

    def get(self, key: str) -> Optional[SimulationResults]:
        """The stored result for ``key``, or ``None``.

        Error records read as ``None`` so campaign resumption retries the
        cell; use :meth:`get_error` to inspect the failure itself.
        """
        record = self._index.get(key)
        if record is None or "result" not in record:
            return None
        return SimulationResults.from_dict(record["result"])

    def get_error(self, key: str) -> Optional[str]:
        """The stored error text for ``key``, or ``None``."""
        record = self._index.get(key)
        if record is None or "result" in record:
            return None
        return record.get("error")

    def get_record(self, key: str) -> Optional[Dict]:
        """The raw stored record (key/meta/result-or-error) for ``key``."""
        return self._index.get(key)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` holds a *successful* result (errors read as absent)."""
        record = self._index.get(key)
        return record is not None and "result" in record

    def __len__(self) -> int:
        """Number of successfully stored results (errors not counted)."""
        return sum(1 for record in self._index.values() if "result" in record)

    def keys(self) -> List[str]:
        """Keys holding successful results, in insertion order."""
        return [key for key, record in self._index.items() if "result" in record]

    def error_keys(self) -> List[str]:
        """Keys whose latest record is a failure, in insertion order."""
        return [key for key, record in self._index.items() if "result" not in record]

    def records(self) -> Iterator[Dict]:
        """All stored records — results and errors — in insertion order."""
        return iter(self._index.values())

    # ------------------------------------------------------------------ writes

    def _append(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True)
        # Fault hook: ``truncate-store@put=N`` simulates dying mid-append —
        # half this line lands on disk and the process exits before the
        # real write below happens.
        self._puts += 1
        faults.fire("store", put=self._puts, store_path=str(self.path),
                    store_line=line + "\n")
        with self.path.open("a", encoding="utf-8") as handle:
            if self._needs_newline:
                # Terminate a crash-truncated trailing line first so this
                # record starts on its own line.
                handle.write("\n")
                self._needs_newline = False
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._index[record["key"]] = record

    def put(self, key: str, result: SimulationResults, meta: Optional[Dict] = None) -> None:
        """Persist ``result`` under ``key`` (last write wins on re-put).

        ``scheme``/``workload``/``label`` metadata are always recorded —
        backfilled from the result itself when the caller's ``meta`` lacks
        them — so :meth:`status` can bucket every record without falling
        back to ``"?"``.
        """
        meta = dict(meta) if meta else {}
        meta.setdefault("scheme", result.scheme)
        meta.setdefault("workload", result.workload)
        meta.setdefault("label", meta["scheme"])
        self._append({"key": key, "meta": meta, "result": result.to_dict()})

    def put_error(self, key: str, error: str, meta: Optional[Dict] = None,
                  poisoned: bool = False) -> None:
        """Persist a failed-cell outcome under ``key``.

        The record survives the process, so ``status`` can report what
        failed after an overnight run exits — but the key still reads as
        absent (see :meth:`get`), so the next ``run`` retries the cell.

        ``poisoned=True`` marks a cell the supervisor quarantined after
        exhausting its retry budget (repeated worker deaths / wedges) —
        worth a human look before burning more compute on it.
        """
        record = {
            "key": key,
            "meta": dict(meta) if meta else {},
            "error": str(error),
            "failed_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if poisoned:
            record["poisoned"] = True
        self._append(record)

    # ------------------------------------------------------------------ reporting

    def status(self) -> Dict:
        """Aggregate counts for the ``status`` CLI subcommand."""
        by_scheme: Dict[str, int] = {}
        by_workload: Dict[str, int] = {}
        errors_by_scheme: Dict[str, int] = {}
        errors_by_workload: Dict[str, int] = {}
        errors = 0
        poisoned = 0
        for record in self._index.values():
            meta = record.get("meta", {})
            scheme = meta.get("label") or meta.get("scheme") or "?"
            workload = meta.get("workload") or "?"
            if "result" in record:
                by_scheme[scheme] = by_scheme.get(scheme, 0) + 1
                by_workload[workload] = by_workload.get(workload, 0) + 1
            else:
                errors += 1
                if record.get("poisoned"):
                    poisoned += 1
                errors_by_scheme[scheme] = errors_by_scheme.get(scheme, 0) + 1
                errors_by_workload[workload] = errors_by_workload.get(workload, 0) + 1
        return {
            "path": str(self.path),
            "cells": len(self),
            "errors": errors,
            "poisoned": poisoned,
            "corrupt_lines": self.corrupt_lines,
            "by_scheme": dict(sorted(by_scheme.items())),
            "by_workload": dict(sorted(by_workload.items())),
            "errors_by_scheme": dict(sorted(errors_by_scheme.items())),
            "errors_by_workload": dict(sorted(errors_by_workload.items())),
        }
