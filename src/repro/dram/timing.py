"""DRAM timing model.

Converts the DDR-style parameters of :class:`repro.sim.config.DramTimingConfig`
into CPU-cycle latencies and transfer occupancies.  The model is deliberately
simple — a fixed device access latency (activate + CAS) plus a transfer time
proportional to the number of bytes moved — because the paper's evaluation is
dominated by *bandwidth* (channel occupancy) rather than detailed bank-level
timing.  Row-buffer behaviour comes from each channel tracking its open
8 KB row (:class:`repro.dram.channel.DramChannel`): a row hit pays CAS only,
a row miss pays precharge + activate + CAS.

tRAS (the minimum time a row stays open before it may be precharged) is
not modelled, a deviation from DDR timing: a row miss never waits for the
open row's activation to age, however soon it follows that activation.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.config import DramTimingConfig


class DramTiming:
    """Precomputed CPU-cycle timing for one DRAM technology."""

    def __init__(
        self,
        timing: DramTimingConfig,
        cpu_freq_ghz: float,
        latency_scale: float = 1.0,
        bandwidth_scale: float = 1.0,
    ) -> None:
        if cpu_freq_ghz <= 0:
            raise ValueError("cpu_freq_ghz must be positive")
        self.config = timing
        self.cpu_freq_ghz = cpu_freq_ghz
        self.latency_scale = latency_scale
        self.bandwidth_scale = bandwidth_scale

        dram_cycle_ns = 1000.0 / timing.bus_mhz
        cpu_cycles_per_dram_cycle = dram_cycle_ns * cpu_freq_ghz

        # Row miss: precharge + activate + CAS.  Row hit: CAS only.
        self._row_miss_latency = (timing.trp + timing.trcd + timing.tcas) * cpu_cycles_per_dram_cycle
        self._row_hit_latency = timing.tcas * cpu_cycles_per_dram_cycle
        self._row_miss_latency *= latency_scale
        self._row_hit_latency *= latency_scale

        # DDR moves ``bus_width_bits`` per edge, i.e. two transfers per bus cycle.
        bytes_per_dram_cycle = (timing.bus_width_bits // 8) * 2.0 * bandwidth_scale
        self._cycles_per_byte = cpu_cycles_per_dram_cycle / bytes_per_dram_cycle

        # Integer latencies precomputed once: these run for every DRAM access
        # and the round/int/max dance is pure overhead when repeated.
        self._row_miss_cycles = max(1, int(round(self._row_miss_latency)))
        self._row_hit_cycles = max(1, int(round(self._row_hit_latency)))
        # Transfer-cycle memo: only a handful of distinct payload sizes occur
        # (line, line+tag, page, metadata), so cache the rounding result.
        # ``DramDevice.access_latency`` reads it directly and calls
        # ``transfer_cycles`` on a miss.
        self.transfer_memo: Dict[int, int] = {}

    @property
    def row_miss_latency_cycles(self) -> int:
        """Device latency (CPU cycles) for an access that misses the row buffer."""
        return self._row_miss_cycles

    @property
    def row_hit_latency_cycles(self) -> int:
        """Device latency (CPU cycles) for an access that hits the row buffer."""
        return self._row_hit_cycles

    def transfer_cycles(self, num_bytes: int) -> int:
        """Channel occupancy (CPU cycles) to move ``num_bytes``.

        Transfers are rounded up to the minimum transfer granularity of the
        technology (32 B for HBM-class links), which is exactly why a 64 B
        line plus an 8 B tag costs 96 B on the wire in the paper.
        """
        cached = self.transfer_memo.get(num_bytes)
        if cached is not None:
            return cached
        if num_bytes <= 0:
            cycles = 0
        else:
            granule = self.config.min_transfer_bytes
            effective = ((num_bytes + granule - 1) // granule) * granule
            cycles = max(1, int(round(effective * self._cycles_per_byte)))
        self.transfer_memo[num_bytes] = cycles
        return cycles
