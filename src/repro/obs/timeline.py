"""Interval timeline: windowed metric deltas over one simulation run.

End-of-run aggregates hide phase behaviour — a workload whose miss rate
swings between 5% and 60% every few thousand records averages out to the
same number as a flat 30% workload, yet the two stress a DRAM cache very
differently.  :class:`TimelineObserver` attaches to
:meth:`repro.sim.engine.SimulationEngine.run` and snapshots windowed
*deltas* of the system's cumulative counters every ``interval_records``
processed records: per-window DRAM-cache hit ratio, in-package vs
off-package bandwidth split, writeback traffic and TLB behaviour.  It
reads those counters only at window boundaries, which are edges of the
engine's run (:mod:`repro.sim.batch`), so it adds no per-record work.

Alignment guarantees:

* a window boundary is forced exactly at ``begin_measurement``, so the
  first *measured* window starts at the warmup boundary (windows inside
  warmup are kept, flagged ``phase="warmup"``);
* every quantity is derived from deterministic simulation state (record
  counts, simulated cycles, byte counters) — never host time — so the
  timeline of a cell is bit-identical whether it ran serially or in a
  worker process.

The resulting :class:`Timeline` is stored as ``SimulationResults.timeline``
(its :meth:`Timeline.to_dict` form); its file form is CSV, and both
round-trip exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.batch import EngineCursor, RunController

if TYPE_CHECKING:
    from repro.sim.system import System

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
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TimelineWindow":  # repro: allow[serde-symmetry]
        data = dict(payload)
        # Timelines stored before the stall histogram was removed carry
        # per-window bucket counts; nothing reads them any more.
        data.pop("latency_counts", None)
        return cls(**data)


#: CSV column order: every field of a window, in to_dict order.
_CSV_COLUMNS = (
    "index", "phase", "start_record", "end_record", "instructions", "cycles",
    "dram_cache_hits", "dram_cache_misses", "llc_misses", "llc_writebacks",
    "tlb_hits", "tlb_misses", "in_bytes", "off_bytes", "writeback_bytes",
)


class Timeline:
    """An ordered sequence of :class:`TimelineWindow` plus its parameters."""

    def __init__(
        self, interval_records: int, windows: Optional[List[TimelineWindow]] = None
    ) -> None:
        if interval_records <= 0:
            raise ValueError("interval_records must be positive")
        self.interval_records = interval_records
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
        }

    # ------------------------------------------------------------ dict form

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval_records": self.interval_records,
            "windows": [window.to_dict() for window in self.windows],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Timeline":
        return cls(
            interval_records=payload["interval_records"],
            windows=[TimelineWindow.from_dict(w) for w in payload.get("windows", [])],
        )

    # ------------------------------------------------------------- CSV form

    def to_csv(self) -> str:
        """Serialise to CSV with a leading ``#`` metadata comment line.

        Floats are written with ``repr`` (shortest round-trip), so
        :meth:`from_csv` reconstructs the exact timeline.  The comment line
        carries the interval; CSV consumers that honour ``comment='#'``
        (pandas, gnuplot) skip it transparently.
        """
        buffer = io.StringIO()
        buffer.write(f"{_CSV_MAGIC} interval_records={self.interval_records}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for window in self.windows:
            row = window.to_dict()
            row["cycles"] = repr(row["cycles"])
            writer.writerow([row[column] for column in _CSV_COLUMNS])
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Timeline":
        """Parse :meth:`to_csv` output; columns are read by name.

        Columns it does not know (earlier versions wrote one more, of
        stall-histogram counts) are ignored.  Anything else that is not a
        timeline CSV raises ``ValueError`` naming what is missing.
        """
        lines = text.splitlines()
        if not lines or not lines[0].startswith(_CSV_MAGIC):
            raise ValueError(f"not a timeline CSV (missing {_CSV_MAGIC!r} header)")
        meta: Dict[str, str] = {}
        for token in lines[0][len(_CSV_MAGIC):].split():
            name, _, value = token.partition("=")
            meta[name] = value
        if "interval_records" not in meta:
            raise ValueError(f"timeline CSV {_CSV_MAGIC!r} header lacks interval_records=")
        reader = csv.DictReader(lines[1:])
        missing = [column for column in _CSV_COLUMNS if column not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"timeline CSV lacks column(s): {', '.join(missing)}")
        windows: List[TimelineWindow] = []
        for number, row in enumerate(reader, start=1):
            payload: Dict[str, object] = {}
            for column in _CSV_COLUMNS:
                value = row[column]
                if value is None:
                    raise ValueError(f"timeline CSV row {number} has no {column} value")
                if column == "cycles":
                    payload[column] = float(value)
                elif column == "phase":
                    payload[column] = value
                else:
                    payload[column] = int(value)
            windows.append(TimelineWindow.from_dict(payload))
        return cls(int(meta["interval_records"]), windows)


class TimelineObserver(RunController):
    """Engine-side observer producing a :class:`Timeline` for one run.

    The engine calls :meth:`begin` before the first record; the observer is
    then a member of the run's edge chain (:mod:`repro.sim.batch`), placed
    right after the warmup edge.  Its stops are the window boundaries: every
    ``interval`` records, plus one forced at the warmup edge.  It reads the
    system's cumulative counters only at those edges and never writes to
    the system, so an observed run does no extra per-record work (the batch
    engine keeps its inline hit path) and its results are unchanged.
    """

    def __init__(self, interval_records: int = DEFAULT_INTERVAL_RECORDS) -> None:
        if interval_records <= 0:
            raise ValueError("interval_records must be positive")
        self.interval = interval_records
        self.timeline = Timeline(interval_records)
        self._phase = PHASE_MEASURE
        self._warmup_end: Optional[int] = None
        self._window_start = 0
        self._last: Dict[str, object] = {}

    # ----------------------------------------------------------- engine API

    def begin(self, system: "System", warmup_end: Optional[int] = None,
              start_record: int = 0) -> None:
        """Record ``system``'s start counters and open the first window.

        ``warmup_end`` is the processed count of the warmup edge, or None
        when the run measures from its first record.  ``start_record`` is
        non-zero only when the engine resumes from a snapshot: the first
        window then opens at the resume point instead of record 0 (earlier
        windows belong to the original run).
        """
        self.timeline = Timeline(self.interval)
        self._warmup_end = warmup_end
        self._phase = PHASE_WARMUP if warmup_end is not None else PHASE_MEASURE
        self._window_start = start_record
        self._last = self._read(system)

    def next_stop(self, processed: int) -> Optional[int]:
        stop = processed + self.interval
        if self._phase == PHASE_WARMUP and self._warmup_end is not None:
            # Force a boundary exactly at the warmup edge, so the first
            # measured window starts at begin_measurement.
            stop = min(stop, self._warmup_end)
        return stop

    def on_edge(self, cursor: EngineCursor) -> bool:
        """Close the current window; the warmup edge also ends the warmup phase."""
        self._close_window(cursor)
        if cursor.measurement_started:
            self._phase = PHASE_MEASURE
        return False

    def on_finish(self, cursor: EngineCursor) -> None:
        """Close any partial final window."""
        self._close_window(cursor)

    # ------------------------------------------------------------ internals

    @staticmethod
    def _read(system: "System") -> Dict[str, object]:
        """Cumulative counter snapshot (everything windows are deltas of)."""
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
        }

    def _close_window(self, cursor: EngineCursor) -> None:
        processed = cursor.processed
        if processed <= self._window_start:
            return
        now = self._read(cursor.system)
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
        ))
        self._window_start = processed
        self._last = now
