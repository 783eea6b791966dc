"""Simulation results.

:class:`SimulationResults` is the single value returned by a simulation run.
It carries everything the experiment harness needs to rebuild the paper's
tables and figures: cycle counts (for speedups), DRAM-cache hit/miss counts
(for MPKI and miss rates), and per-device traffic breakdowns in bytes per
instruction (for the traffic figures).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.util.serde import dataclass_from_dict

if TYPE_CHECKING:
    from repro.obs.timeline import Timeline


@dataclass
class SimulationResults:
    """Outcome of one (workload, scheme) simulation."""

    workload: str
    scheme: str
    num_cores: int
    instructions: int
    memory_accesses: int
    cycles: float
    per_core_cycles: List[float] = field(default_factory=list)
    dram_cache_hits: int = 0
    dram_cache_misses: int = 0
    llc_misses: int = 0
    llc_writebacks: int = 0
    tlb_misses: int = 0
    in_traffic_bytes: Dict[str, int] = field(default_factory=dict)
    off_traffic_bytes: Dict[str, int] = field(default_factory=dict)
    scheme_stats: Dict[str, float] = field(default_factory=dict)
    hierarchy_stats: Dict[str, int] = field(default_factory=dict)
    os_stall_cycles: float = 0.0
    wall_time_seconds: float = 0.0
    #: Interval timeline captured by a :class:`repro.obs.timeline.TimelineObserver`
    #: (its ``Timeline.to_dict()`` form), or ``None`` when no observer was
    #: attached.  Deterministic — built from simulated state only — so it
    #: participates in :meth:`identity_dict` comparisons.
    timeline: Optional[Dict] = None

    # ------------------------------------------------------------------ derived metrics

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle (all cores)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def dram_cache_accesses(self) -> int:
        """Demand accesses that reached the memory controllers."""
        return self.dram_cache_hits + self.dram_cache_misses

    @property
    def dram_cache_miss_rate(self) -> float:
        """DRAM-cache miss rate (Table 6 / Figure 9a metric)."""
        total = self.dram_cache_accesses
        return self.dram_cache_misses / total if total else 0.0

    @property
    def mpki(self) -> float:
        """DRAM-cache misses per kilo-instruction (red dots of Figure 4)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.dram_cache_misses / self.instructions

    @property
    def in_bytes_per_instruction(self) -> Dict[str, float]:
        """In-package traffic breakdown in bytes/instruction (Figure 5)."""
        return self._per_instruction(self.in_traffic_bytes)

    @property
    def off_bytes_per_instruction(self) -> Dict[str, float]:
        """Off-package traffic breakdown in bytes/instruction (Figure 6)."""
        return self._per_instruction(self.off_traffic_bytes)

    @property
    def total_in_bytes_per_instruction(self) -> float:
        """Total in-package DRAM bytes per instruction."""
        return sum(self.in_bytes_per_instruction.values())

    @property
    def total_off_bytes_per_instruction(self) -> float:
        """Total off-package DRAM bytes per instruction."""
        return sum(self.off_bytes_per_instruction.values())

    def _per_instruction(self, traffic: Dict[str, int]) -> Dict[str, float]:
        if self.instructions == 0:
            return {key: 0.0 for key in traffic}
        return {key: value / self.instructions for key, value in traffic.items()}

    # ------------------------------------------------------------------ comparisons

    def speedup_over(self, baseline: "SimulationResults") -> float:
        """Speedup of this run relative to ``baseline`` (same workload).

        Both runs execute the same instruction streams, so the ratio of
        cycle counts is the speedup (Figure 4's normalisation).
        """
        if baseline.workload != self.workload:
            raise ValueError(
                f"speedup comparison requires the same workload, got {self.workload!r} vs {baseline.workload!r}"
            )
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a plain dictionary that :meth:`from_dict` round-trips.

        All fields are JSON-native (ints, floats, strings, flat dicts and
        lists), so ``json.loads(json.dumps(r.to_dict()))`` reconstructs the
        exact value — Python's JSON float formatting is shortest-round-trip,
        so cycle counts survive bit-identically.  The campaign result store
        persists results in this form.

        ``timeline`` is omitted when no observer captured one, so payloads
        (and the hot-path goldens) from before the field existed compare
        equal to current output.
        """
        payload = dataclasses.asdict(self)
        if self.timeline is None:
            payload.pop("timeline")
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResults":
        """Rebuild a results object from :meth:`to_dict` output.

        Unknown keys are rejected loudly (a store written by a newer version
        should not be silently truncated); missing optional fields fall back
        to their dataclass defaults so old store files keep loading.
        """
        return dataclass_from_dict(cls, payload)

    def identity_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` minus host-dependent timing (for equality checks).

        ``wall_time_seconds`` measures the simulating host, not the simulated
        system, so it is excluded when comparing results for determinism
        (e.g. parallel vs serial campaign execution).
        """
        payload = self.to_dict()
        payload.pop("wall_time_seconds")
        return payload

    def timeline_object(self) -> Optional["Timeline"]:
        """The attached timeline as a :class:`repro.obs.timeline.Timeline` (or None)."""
        if self.timeline is None:
            return None
        from repro.obs.timeline import Timeline

        return Timeline.from_dict(self.timeline)

    def summary(self) -> Dict[str, float]:
        """Compact flat summary (used by reports and EXPERIMENTS.md)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "instructions": self.instructions,
            "cycles": round(self.cycles, 1),
            "ipc": round(self.ipc, 4),
            "miss_rate": round(self.dram_cache_miss_rate, 4),
            "mpki": round(self.mpki, 3),
            "in_bpi": round(self.total_in_bytes_per_instruction, 4),
            "off_bpi": round(self.total_off_bytes_per_instruction, 4),
        }


def geometric_mean(values: List[float]) -> float:
    """Geometric mean used for the "average" bars in the paper's figures."""
    filtered = [value for value in values if value > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))
