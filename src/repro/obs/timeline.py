"""Interval timeline: windowed metric deltas over one simulation run.

End-of-run aggregates hide phase behaviour — a workload whose miss rate
swings between 5% and 60% every few thousand records averages out to the
same number as a flat 30% workload, yet the two stress a DRAM cache very
differently.  :class:`TimelineObserver` attaches to
:meth:`repro.sim.engine.SimulationEngine.run` and snapshots windowed
*deltas* of the system's cumulative counters every ``interval_records``
processed records: per-window DRAM-cache hit ratio, in-package vs
off-package bandwidth split, writeback traffic, TLB behaviour, and a
memory-stall latency histogram.

Alignment guarantees:

* a window boundary is forced exactly at ``begin_measurement``, so the
  first *measured* window starts at the warmup boundary (windows inside
  warmup are kept, flagged ``phase="warmup"``);
* every quantity is derived from deterministic simulation state (record
  counts, simulated cycles, byte counters) — never host time — so the
  timeline of a cell is bit-identical whether it ran serially or in a
  worker process.

The resulting :class:`Timeline` is attached to
``SimulationResults.timeline`` (as its :meth:`Timeline.to_dict` form) and
round-trips exactly through dicts, CSV and JSONL.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram
from repro.sim.batch import EngineCursor, RunController

#: Default snapshot interval in processed records (across all cores).
DEFAULT_INTERVAL_RECORDS = 1000

PHASE_WARMUP = "warmup"
PHASE_MEASURE = "measure"

#: CSV header comment carrying the metadata columns cannot (see to_csv).
_CSV_MAGIC = "#repro-timeline"


@dataclass
class TimelineWindow:
    """Metric deltas for one record window ``[start_record, end_record)``."""

    index: int
    phase: str
    start_record: int
    end_record: int
    instructions: int
    cycles: float
    dram_cache_hits: int
    dram_cache_misses: int
    llc_misses: int
    llc_writebacks: int
    tlb_hits: int
    tlb_misses: int
    in_bytes: int
    off_bytes: int
    writeback_bytes: int
    latency_counts: List[int] = field(default_factory=list)

    # -------------------------------------------------------------- derived

    @property
    def records(self) -> int:
        return self.end_record - self.start_record

    @property
    def dram_cache_accesses(self) -> int:
        return self.dram_cache_hits + self.dram_cache_misses

    @property
    def hit_ratio(self) -> float:
        """DRAM-cache hit ratio inside this window (0 when idle)."""
        total = self.dram_cache_accesses
        return self.dram_cache_hits / total if total else 0.0

    @property
    def total_bytes(self) -> int:
        return self.in_bytes + self.off_bytes

    @property
    def off_fraction(self) -> float:
        """Share of this window's DRAM bytes that went off-package."""
        total = self.total_bytes
        return self.off_bytes / total if total else 0.0

    @property
    def tlb_miss_ratio(self) -> float:
        total = self.tlb_hits + self.tlb_misses
        return self.tlb_misses / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "phase": self.phase,
            "start_record": self.start_record,
            "end_record": self.end_record,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "dram_cache_hits": self.dram_cache_hits,
            "dram_cache_misses": self.dram_cache_misses,
            "llc_misses": self.llc_misses,
            "llc_writebacks": self.llc_writebacks,
            "tlb_hits": self.tlb_hits,
            "tlb_misses": self.tlb_misses,
            "in_bytes": self.in_bytes,
            "off_bytes": self.off_bytes,
            "writeback_bytes": self.writeback_bytes,
            "latency_counts": list(self.latency_counts),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TimelineWindow":
        data = dict(payload)
        data["latency_counts"] = list(data.get("latency_counts", []))
        return cls(**data)


#: CSV column order (latency_counts is pipe-joined into one column).
_CSV_COLUMNS = (
    "index", "phase", "start_record", "end_record", "instructions", "cycles",
    "dram_cache_hits", "dram_cache_misses", "llc_misses", "llc_writebacks",
    "tlb_hits", "tlb_misses", "in_bytes", "off_bytes", "writeback_bytes",
    "latency_counts",
)
_INT_COLUMNS = frozenset(_CSV_COLUMNS) - {"phase", "cycles", "latency_counts"}


class Timeline:
    """An ordered sequence of :class:`TimelineWindow` plus its parameters."""

    def __init__(
        self,
        interval_records: int,
        latency_bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
        windows: Optional[List[TimelineWindow]] = None,
    ) -> None:
        if interval_records <= 0:
            raise ValueError("interval_records must be positive")
        self.interval_records = interval_records
        self.latency_bounds = [float(b) for b in latency_bounds]
        self.windows: List[TimelineWindow] = list(windows or [])

    def __len__(self) -> int:
        return len(self.windows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @property
    def measured(self) -> List[TimelineWindow]:
        return [w for w in self.windows if w.phase == PHASE_MEASURE]

    @property
    def warmup(self) -> List[TimelineWindow]:
        return [w for w in self.windows if w.phase == PHASE_WARMUP]

    def totals(self, phase: Optional[str] = PHASE_MEASURE) -> Dict[str, float]:
        """Sum the additive columns over ``phase`` windows (None = all)."""
        selected = self.windows if phase is None else [w for w in self.windows if w.phase == phase]
        keys = ("instructions", "cycles", "dram_cache_hits", "dram_cache_misses",
                "llc_misses", "llc_writebacks", "tlb_hits", "tlb_misses",
                "in_bytes", "off_bytes", "writeback_bytes")
        totals: Dict[str, float] = {key: 0 for key in keys}
        for window in selected:
            for key in keys:
                totals[key] += getattr(window, key)
        return totals

    def summary(self) -> Dict[str, object]:
        """Compact description used by ``python -m repro.obs summarize``."""
        measured = self.measured
        ratios = [w.hit_ratio for w in measured if w.dram_cache_accesses]
        offs = [w.off_fraction for w in measured if w.total_bytes]
        histogram = Histogram("latency", self.latency_bounds)
        merged = [0] * (len(self.latency_bounds) + 1)
        for window in measured:
            for index, count in enumerate(window.latency_counts):
                merged[index] += count
        return {
            "windows": len(self.windows),
            "measured_windows": len(measured),
            "warmup_windows": len(self.warmup),
            "interval_records": self.interval_records,
            "hit_ratio_min": round(min(ratios), 4) if ratios else 0.0,
            "hit_ratio_mean": round(sum(ratios) / len(ratios), 4) if ratios else 0.0,
            "hit_ratio_max": round(max(ratios), 4) if ratios else 0.0,
            "off_fraction_min": round(min(offs), 4) if offs else 0.0,
            "off_fraction_max": round(max(offs), 4) if offs else 0.0,
            "latency_p50": histogram.quantile(0.5, merged),
            "latency_p95": histogram.quantile(0.95, merged),
        }

    # ------------------------------------------------------------ dict form

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval_records": self.interval_records,
            "latency_bounds": list(self.latency_bounds),
            "windows": [window.to_dict() for window in self.windows],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Timeline":
        return cls(
            interval_records=payload["interval_records"],
            latency_bounds=payload["latency_bounds"],
            windows=[TimelineWindow.from_dict(w) for w in payload.get("windows", [])],
        )

    # ------------------------------------------------------------- CSV form

    def to_csv(self) -> str:
        """Serialise to CSV with a leading ``#`` metadata comment line.

        Floats are written with ``repr`` (shortest round-trip), so
        :meth:`from_csv` reconstructs the exact timeline.  The comment line
        carries the interval and bucket bounds; CSV consumers that honour
        ``comment='#'`` (pandas, gnuplot) skip it transparently.
        """
        buffer = io.StringIO()
        bounds = "|".join(repr(b) for b in self.latency_bounds)
        buffer.write(f"{_CSV_MAGIC} interval_records={self.interval_records} "
                     f"latency_bounds={bounds}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for window in self.windows:
            row = window.to_dict()
            writer.writerow([
                "|".join(str(c) for c in row["latency_counts"])
                if column == "latency_counts"
                else repr(row["cycles"]) if column == "cycles"
                else row[column]
                for column in _CSV_COLUMNS
            ])
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Timeline":
        lines = text.splitlines()
        if not lines or not lines[0].startswith(_CSV_MAGIC):
            raise ValueError(f"not a timeline CSV (missing {_CSV_MAGIC!r} header)")
        meta: Dict[str, str] = {}
        for token in lines[0][len(_CSV_MAGIC):].split():
            name, _, value = token.partition("=")
            meta[name] = value
        interval = int(meta["interval_records"])
        bounds = [float(b) for b in meta["latency_bounds"].split("|")]
        windows: List[TimelineWindow] = []
        for row in csv.DictReader(lines[1:]):
            payload: Dict[str, object] = {}
            for column in _CSV_COLUMNS:
                value = row[column]
                if column == "latency_counts":
                    payload[column] = [int(c) for c in value.split("|")] if value else []
                elif column == "cycles":
                    payload[column] = float(value)
                elif column in _INT_COLUMNS:
                    payload[column] = int(value)
                else:
                    payload[column] = value
            windows.append(TimelineWindow.from_dict(payload))
        return cls(interval_records=interval, latency_bounds=bounds, windows=windows)

    # ----------------------------------------------------------- JSONL form

    def to_jsonl(self) -> str:
        """One metadata line followed by one JSON line per window."""
        lines = [json.dumps({
            "meta": {
                "interval_records": self.interval_records,
                "latency_bounds": self.latency_bounds,
            }
        }, sort_keys=True)]
        lines.extend(json.dumps(w.to_dict(), sort_keys=True) for w in self.windows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Timeline":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty timeline JSONL")
        header = json.loads(lines[0])
        if "meta" not in header:
            raise ValueError("timeline JSONL must start with a meta line")
        meta = header["meta"]
        return cls(
            interval_records=meta["interval_records"],
            latency_bounds=meta["latency_bounds"],
            windows=[TimelineWindow.from_dict(json.loads(line)) for line in lines[1:]],
        )


class TimelineObserver(RunController):
    """Engine-side observer producing a :class:`Timeline` for one run.

    The engine calls :meth:`begin` before the first record; the observer is
    then a member of the run's edge chain (:mod:`repro.sim.batch`), placed
    right after the warmup edge.  Its stops are the window boundaries: every
    ``interval`` records, plus one forced at the warmup edge.  Between
    boundaries the only per-record work is the latency histogram's
    ``observe`` — wired into :class:`~repro.sim.system.System` as an
    optional hook that stays ``None`` (one check, zero cost) when no
    observer is attached.
    """

    def __init__(
        self,
        interval_records: int = DEFAULT_INTERVAL_RECORDS,
        latency_bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
    ) -> None:
        if interval_records <= 0:
            raise ValueError("interval_records must be positive")
        self.interval = interval_records
        self.latency_bounds = [float(b) for b in latency_bounds]
        self.timeline = Timeline(interval_records, self.latency_bounds)
        self._system = None
        self._histogram = Histogram("memory_stall_cycles", self.latency_bounds)
        self._phase = PHASE_MEASURE
        self._warmup_end: Optional[int] = None
        self._window_start = 0
        self._last: Dict[str, object] = {}

    # ----------------------------------------------------------- engine API

    def begin(self, system, warmup_end: Optional[int] = None, start_record: int = 0) -> None:
        """Attach to ``system`` and open the first window.

        ``warmup_end`` is the processed count of the warmup edge, or None
        when the run measures from its first record.  ``start_record`` is
        non-zero only when the engine resumes from a snapshot: the first
        window then opens at the resume point instead of record 0 (earlier
        windows belong to the original run).
        """
        self._system = system
        self._histogram = Histogram("memory_stall_cycles", self.latency_bounds)
        self.timeline = Timeline(self.interval, self.latency_bounds)
        self._warmup_end = warmup_end
        self._phase = PHASE_WARMUP if warmup_end is not None else PHASE_MEASURE
        self._window_start = start_record
        self._last = self._read()
        system._obs_latency_hook = self._histogram.observe

    def next_stop(self, processed: int) -> Optional[int]:
        stop = processed + self.interval
        if self._phase == PHASE_WARMUP and self._warmup_end is not None:
            # Force a boundary exactly at the warmup edge, so the first
            # measured window starts at begin_measurement.
            stop = min(stop, self._warmup_end)
        return stop

    def on_edge(self, cursor: EngineCursor) -> bool:
        """Close the current window; the warmup edge also ends the warmup phase."""
        self._close_window(cursor.processed)
        if cursor.measurement_started:
            self._phase = PHASE_MEASURE
        return False

    def on_finish(self, cursor: EngineCursor) -> None:
        """Close any partial final window and detach from the system."""
        self._close_window(cursor.processed)
        if self._system is not None:
            self._system._obs_latency_hook = None
            self._system = None

    # ------------------------------------------------------------ internals

    def _read(self) -> Dict[str, object]:
        """Cumulative counter snapshot (everything windows are deltas of)."""
        system = self._system
        scheme_stats = system.scheme.stats
        return {
            "instructions": sum(core.stats.instructions for core in system.cores),
            "cycles": max((core.clock for core in system.cores), default=0.0),
            "hits": scheme_stats.get("dram_cache_hits"),
            "misses": scheme_stats.get("dram_cache_misses"),
            "llc_misses": system.llc_misses,
            "llc_writebacks": system.llc_writebacks,
            "tlb_hits": sum(tlb.hits for tlb in system.tlbs),
            "tlb_misses": sum(tlb.misses for tlb in system.tlbs),
            "in_traffic": dict(system.in_dram.traffic.breakdown()),
            "off_traffic": dict(system.off_dram.traffic.breakdown()),
            "latency_counts": self._histogram.snapshot(),
        }

    def _close_window(self, processed: int) -> None:
        if processed <= self._window_start:
            return
        now = self._read()
        last = self._last
        in_delta = {key: value - last["in_traffic"].get(key, 0)
                    for key, value in now["in_traffic"].items()}
        off_delta = {key: value - last["off_traffic"].get(key, 0)
                     for key, value in now["off_traffic"].items()}
        writeback = in_delta.get("Writeback", 0) + off_delta.get("Writeback", 0)
        self.timeline.windows.append(TimelineWindow(
            index=len(self.timeline.windows),
            phase=self._phase,
            start_record=self._window_start,
            end_record=processed,
            instructions=int(now["instructions"] - last["instructions"]),
            cycles=now["cycles"] - last["cycles"],
            dram_cache_hits=int(now["hits"] - last["hits"]),
            dram_cache_misses=int(now["misses"] - last["misses"]),
            llc_misses=now["llc_misses"] - last["llc_misses"],
            llc_writebacks=now["llc_writebacks"] - last["llc_writebacks"],
            tlb_hits=now["tlb_hits"] - last["tlb_hits"],
            tlb_misses=now["tlb_misses"] - last["tlb_misses"],
            in_bytes=sum(in_delta.values()),
            off_bytes=sum(off_delta.values()),
            writeback_bytes=writeback,
            latency_counts=[now_c - last_c for now_c, last_c
                            in zip(now["latency_counts"], last["latency_counts"])],
        ))
        self._window_start = processed
        self._last = now
