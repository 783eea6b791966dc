"""TLB shootdown cost model.

Banshee performs one system-wide TLB shootdown per tag-buffer flush
(Section 3.4).  The paper charges the initiating core 4 µs and every other
core 1 µs (Table 3, citing DiDi).  This module converts those costs into
cycles so the system can add them to the affected cores' clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.util.units import cycles_from_us


@dataclass
class ShootdownCost:
    """Per-core cycle penalties for one shootdown."""

    initiator_core: int
    per_core_cycles: List[int]


class ShootdownCostModel:
    """Computes per-core penalties for TLB shootdowns and PTE update batches."""

    def __init__(
        self,
        num_cores: int,
        freq_ghz: float,
        initiator_us: float,
        slave_us: float,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self.initiator_cycles = cycles_from_us(initiator_us, freq_ghz)
        self.slave_cycles = cycles_from_us(slave_us, freq_ghz)
        self.shootdowns = 0

    def shootdown(self, initiator_core: int) -> ShootdownCost:
        """Cost of one system-wide shootdown initiated by ``initiator_core``."""
        if not 0 <= initiator_core < self.num_cores:
            raise ValueError("initiator core out of range")
        self.shootdowns += 1
        per_core = [self.slave_cycles] * self.num_cores
        per_core[initiator_core] = self.initiator_cycles
        return ShootdownCost(initiator_core=initiator_core, per_core_cycles=per_core)
