"""A DRAM channel modelled as a busy-time (bandwidth) resource.

Each channel serialises the transfers routed to it.  A request arriving at
time ``now`` waits until the channel is free, then occupies it for the
transfer time of its payload.  The returned latency therefore includes
queueing delay, which is how bandwidth contention — the central quantity in
the Banshee evaluation — shows up as performance loss.

:meth:`DramChannel.access_latency` is the whole timing model in one frame:
it calls nothing on a transfer-memo hit, so a device access costs two Python
frames (device, channel).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import DramTiming


@dataclass
class ChannelAccess:
    """Outcome of a single channel access."""

    __slots__ = ("latency", "queue_delay", "transfer_cycles", "completion_time")

    latency: int
    queue_delay: int
    transfer_cycles: int
    completion_time: int


class DramChannel:
    """One DRAM channel that tracks its open row.

    Two priority classes are modelled, mirroring how memory controllers
    schedule traffic:

    * **demand** accesses (the line a core is waiting for) are serialised on
      the channel and see queueing delay when it is busy;
    * **background** transfers (cache fills, page replacement moves, dirty
      writebacks) are buffered and drained with lower priority: they consume
      bandwidth during idle gaps first, and only push back demand traffic
      once the buffer (``background_buffer_cycles``) is full.

    Without the second class a single 4 KB page move would block a later
    demand read for thousands of cycles, which is not how real controllers
    with read-priority scheduling behave.

    An access to the row of the previous access is a row-buffer hit (CAS
    only); any other row pays precharge + activate + CAS.
    """

    def __init__(self, channel_id: int, timing: DramTiming, background_buffer_cycles: int = 4096) -> None:
        if background_buffer_cycles < 0:
            raise ValueError("background_buffer_cycles must be non-negative")
        self.channel_id = channel_id
        self.timing = timing
        self.background_buffer_cycles = background_buffer_cycles
        self.busy_until = 0
        self.total_busy_cycles = 0
        self.total_requests = 0
        self._background_backlog = 0
        self._last_row: int = -1
        # Read on every access without a call: the timing's transfer memo
        # (shared, filled by ``DramTiming.transfer_cycles`` on a miss) and
        # the two device latencies.
        self._transfer_memo = timing.transfer_memo
        self._row_hit_cycles = timing.row_hit_latency_cycles
        self._row_miss_cycles = timing.row_miss_latency_cycles
        # Detail fields of the most recent ``access_latency`` call.  The
        # :class:`ChannelAccess`-returning :meth:`access` reads them back, so
        # the hot path never allocates, and the queue delay is what stall
        # attribution needs.
        self.last_queue_delay = 0
        self.last_transfer_cycles = 0
        self.last_completion_time = 0

    def access(self, now: int, num_bytes: int, row: int, background: bool = False) -> ChannelAccess:
        """Issue one transfer of ``num_bytes`` at time ``now``.

        Args:
            now: current CPU cycle at the requesting core.
            num_bytes: payload size; occupancy is proportional to it.
            row: non-negative row identifier for row-buffer locality.
            background: True for fills/replacement/writeback traffic that is
                not on any core's critical path.
        """
        latency = self.access_latency(now, num_bytes, row, background)
        return ChannelAccess(
            latency=latency,
            queue_delay=self.last_queue_delay,
            transfer_cycles=self.last_transfer_cycles,
            completion_time=self.last_completion_time,
        )

    def access_latency(self, now: int, num_bytes: int, row: int, background: bool = False) -> int:
        """Allocation-free :meth:`access`: returns the latency only.

        The queue-delay / transfer / completion details of the call are left
        in ``last_queue_delay`` / ``last_transfer_cycles`` /
        ``last_completion_time`` for callers that need them.
        """
        if now < 0:
            raise ValueError("time must be non-negative")
        transfer = self._transfer_memo.get(num_bytes)
        if transfer is None:
            transfer = self.timing.transfer_cycles(num_bytes)
        if row == self._last_row:
            device_latency = self._row_hit_cycles
        else:
            device_latency = self._row_miss_cycles
            self._last_row = row

        # Idle time before ``now`` drains buffered background work first.
        busy_until = self.busy_until
        backlog = self._background_backlog
        if backlog > 0 and busy_until < now:
            drained = now - busy_until
            if drained > backlog:
                drained = backlog
            busy_until += drained
            backlog -= drained
        self.total_busy_cycles += transfer
        self.total_requests += 1
        self.last_transfer_cycles = transfer

        if background:
            backlog += transfer
            overflow = backlog - self.background_buffer_cycles
            if overflow > 0:
                # The fill/writeback buffers are full: the excess applies
                # back-pressure and delays demand traffic like any transfer.
                if busy_until < now:
                    busy_until = now
                busy_until += overflow
                backlog = self.background_buffer_cycles
            self.busy_until = busy_until
            self._background_backlog = backlog
            self.last_queue_delay = 0
            self.last_completion_time = (busy_until if busy_until > now else now) + device_latency + transfer
            return device_latency + transfer

        self._background_backlog = backlog
        start = busy_until if busy_until > now else now
        queue_delay = start - now
        self.last_queue_delay = queue_delay
        self.last_completion_time = start + device_latency + transfer
        self.busy_until = start + transfer
        return queue_delay + device_latency + transfer

    @property
    def background_backlog_cycles(self) -> int:
        """Buffered background work not yet charged to the channel timeline."""
        return self._background_backlog

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` this channel spent transferring data."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.total_busy_cycles / elapsed_cycles)

    def reset(self) -> None:
        """Clear all dynamic state (used between simulation phases)."""
        self.busy_until = 0
        self.total_busy_cycles = 0
        self.total_requests = 0
        self._background_backlog = 0
        self._last_row = -1
