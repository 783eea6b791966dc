"""A DRAM device: a set of channels plus traffic accounting.

Two devices exist in a simulated system — the in-package DRAM (the cache)
and the off-package DRAM (backing memory).  Addresses are interleaved across
the device's channels at page granularity, matching the paper's assumption
that physical addresses map to memory controllers statically at page
granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dram.channel import DramChannel
from repro.dram.timing import DramTiming
from repro.sim.config import DramConfig
from repro.sim.stats import TrafficCategory, TrafficStats


@dataclass
class DramAccessResult:
    """Latency and accounting outcome of one device access."""

    __slots__ = ("latency", "queue_delay", "num_bytes", "channel_id")

    latency: int
    queue_delay: int
    num_bytes: int
    channel_id: int


class DramDevice:
    """One DRAM device (in-package or off-package)."""

    def __init__(self, config: DramConfig, cpu_freq_ghz: float, page_size: int = 4096) -> None:
        self.config = config
        self.page_size = page_size
        self.timing = DramTiming(
            config.timing,
            cpu_freq_ghz,
            latency_scale=config.latency_scale,
            bandwidth_scale=config.bandwidth_scale,
        )
        self.channels: List[DramChannel] = [DramChannel(i, self.timing) for i in range(config.num_channels)]
        self._num_channels = config.num_channels
        self.traffic = TrafficStats(config.name)

    @property
    def name(self) -> str:
        """Device name ("in-package" or "off-package")."""
        return self.config.name

    def channel_for(self, addr: int) -> DramChannel:
        """Channel owning ``addr`` (page-granularity interleaving)."""
        page = addr // self.page_size
        return self.channels[page % len(self.channels)]

    def access(
        self, now: int, addr: int, num_bytes: int, category: TrafficCategory, background: bool = False
    ) -> DramAccessResult:
        """:meth:`access_latency` plus the queue delay and the channel it used."""
        latency = self.access_latency(now, addr, num_bytes, category, background)
        channel = self.channel_for(addr)
        return DramAccessResult(
            latency=latency,
            queue_delay=channel.last_queue_delay,
            num_bytes=num_bytes,
            channel_id=channel.channel_id,
        )

    def access_latency(
        self, now: int, addr: int, num_bytes: int, category: TrafficCategory, background: bool = False
    ) -> int:
        """Perform one access of ``num_bytes`` at ``addr``; return its latency.

        The only per-access entry point: the DRAM-cache schemes drive it for
        every LLC miss and writeback.  It validates the byte count before it
        changes any state, runs the owning channel's timing model, then
        records the traffic inline (the work of :meth:`TrafficStats.record`
        without its call and repeated check).
        """
        if num_bytes < 0:
            raise ValueError(f"traffic bytes must be non-negative, got {num_bytes}")
        latency = self.channels[(addr // self.page_size) % self._num_channels].access_latency(
            now, num_bytes, addr // 8192, background
        )
        traffic = self.traffic
        traffic._bytes[category] += num_bytes
        traffic._accesses += 1
        return latency

    def record_only(self, num_bytes: int, category: TrafficCategory) -> None:
        """Record traffic without a timing effect (used for bulk background moves)."""
        self.traffic.record(category, num_bytes)

    def utilization(self, elapsed_cycles: int) -> float:
        """Average utilisation across channels."""
        if not self.channels:
            return 0.0
        return sum(channel.utilization(elapsed_cycles) for channel in self.channels) / len(self.channels)

    def reset(self) -> None:
        """Reset dynamic channel state and traffic counters."""
        for channel in self.channels:
            channel.reset()
        self.traffic = TrafficStats(self.config.name)
