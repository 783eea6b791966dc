"""A DRAM device: a set of channels plus traffic accounting.

Two devices exist in a simulated system — the in-package DRAM (the cache)
and the off-package DRAM (backing memory).  Addresses are interleaved across
the device's channels at page granularity, matching the paper's assumption
that physical addresses map to memory controllers statically at page
granularity.

Every transfer is one :meth:`DramDevice.access_latency` call, and that call
is one Python frame: it runs the channel timing model of
:mod:`repro.dram.channel` over the owning :class:`DramChannel`'s fields and
records the traffic itself.
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
        self.channels: List[DramChannel] = [DramChannel(i) for i in range(config.num_channels)]
        self._num_channels = config.num_channels
        self.traffic = TrafficStats(config.name)
        # Read on every access without a call: the timing's transfer memo
        # (filled by ``DramTiming.transfer_cycles`` on a miss) and the two
        # device latencies.
        self._transfer_memo = self.timing.transfer_memo
        self._row_hit_cycles = self.timing.row_hit_latency_cycles
        self._row_miss_cycles = self.timing.row_miss_latency_cycles

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
        """Perform one transfer of ``num_bytes`` at ``addr``; return its latency.

        The only per-transfer entry point: the DRAM-cache schemes drive it for
        every LLC miss and writeback.  It rejects a negative byte count or
        time before it changes any state, then runs the owning channel's
        timing model and records the traffic, calling nothing unless
        ``num_bytes`` misses the transfer memo.

        Args:
            now: current CPU cycle at the requesting core.
            addr: physical address; picks the channel and the 8 KB row.
            num_bytes: payload size; channel occupancy is proportional to it.
            category: traffic category the bytes are counted under.
            background: True for fills/replacement/writeback traffic that is
                not on any core's critical path.
        """
        if num_bytes < 0:
            raise ValueError(f"traffic bytes must be non-negative, got {num_bytes}")
        if now < 0:
            raise ValueError("time must be non-negative")
        channel = self.channels[(addr // self.page_size) % self._num_channels]
        try:
            transfer = self._transfer_memo[num_bytes]
        except KeyError:
            transfer = self.timing.transfer_cycles(num_bytes)
        row = addr // 8192
        if row == channel._last_row:
            device_latency = self._row_hit_cycles
        else:
            device_latency = self._row_miss_cycles
            channel._last_row = row
        self.traffic._bytes[category] += num_bytes

        # Idle time before ``now`` drains buffered background work first.
        busy_until = channel.busy_until
        backlog = channel._background_backlog
        if backlog > 0 and busy_until < now:
            drained = now - busy_until
            if drained > backlog:
                drained = backlog
            busy_until += drained
            backlog -= drained
        channel.total_busy_cycles += transfer

        if background:
            backlog += transfer
            overflow = backlog - channel.background_buffer_cycles
            if overflow > 0:
                # The fill/writeback buffers are full: the excess applies
                # back-pressure and delays demand traffic like any transfer.
                if busy_until < now:
                    busy_until = now
                busy_until += overflow
                backlog = channel.background_buffer_cycles
            channel.busy_until = busy_until
            channel._background_backlog = backlog
            channel.last_queue_delay = 0
            return device_latency + transfer

        channel._background_backlog = backlog
        start = busy_until if busy_until > now else now
        queue_delay = start - now
        channel.last_queue_delay = queue_delay
        channel.busy_until = start + transfer
        return queue_delay + device_latency + transfer

    def record_only(self, num_bytes: int, category: TrafficCategory) -> None:
        """Record traffic without a timing effect (used for bulk background moves)."""
        self.traffic.record(category, num_bytes)

    def utilization(self, elapsed_cycles: int) -> float:
        """Average utilisation across channels."""
        if not self.channels:
            return 0.0
        return sum(channel.utilization(elapsed_cycles) for channel in self.channels) / len(self.channels)
