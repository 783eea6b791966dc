"""Per-core clock and accounting for the analytic core timing model.

ZSim models detailed out-of-order cores; at the scale of this reproduction
the relevant first-order behaviour is (a) how many non-memory instructions a
core retires per cycle and (b) how much of a long-latency memory access it
can overlap with other work.  The timing rules that capture both live in
one place, :meth:`repro.sim.system.System.process_record_cols` (the batch
engine's inline TLB+L1 hit in :mod:`repro.sim.batch` repeats its hit case):

* non-memory instructions advance the core clock by ``gap / issue_width``;
* a memory access adds its hierarchy latency, with LLC-miss latency divided
  by the workload's memory-level parallelism (MLP) factor to model
  overlapping of outstanding misses.

This keeps memory-bound workloads bandwidth-limited (their performance is
dominated by DRAM latency under contention, exactly the regime the paper
studies) while compute-bound workloads stay core-limited.

:class:`CoreModel` holds what those rules read and write: the clock, the
stats, the level latencies and MLP hoisted out of the per-record path, and
the queue of OS-induced stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import CoreConfig


@dataclass
class CoreStats:
    """Per-core retirement and stall accounting."""

    instructions: int = 0
    memory_accesses: int = 0
    compute_cycles: float = 0.0
    memory_stall_cycles: float = 0.0
    os_stall_cycles: float = 0.0


class CoreModel:
    """One core's clock, stats and pending OS stalls."""

    def __init__(self, core_id: int, config: CoreConfig, mlp: float) -> None:
        self.core_id = core_id
        self.config = config
        self.mlp = float(mlp)
        if self.mlp < 1.0:
            raise ValueError("MLP must be >= 1")
        self.clock: float = 0.0
        self.stats = CoreStats()
        self._pending_stall: float = 0.0
        # Level latencies hoisted out of the per-record path: the float
        # conversions and config attribute chains are invariant.
        self._l1_stall = float(config.l1_hit_latency)
        self._l2_stall = float(config.l2_hit_latency)
        self._l3_stall = float(config.l3_hit_latency)
        self._issue_width = config.issue_width

    # ------------------------------------------------------------------ OS stalls

    def add_stall(self, cycles: float) -> None:
        """Queue an OS-induced stall (PTE update, shootdown, HMA freeze)."""
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        self._pending_stall += cycles

    def apply_pending_stalls(self) -> None:
        """Fold queued OS stalls into the clock (before the core's next record)."""
        if self._pending_stall > 0:
            self.clock += self._pending_stall
            self.stats.os_stall_cycles += self._pending_stall
            self._pending_stall = 0.0
