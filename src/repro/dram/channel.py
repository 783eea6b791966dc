"""A DRAM channel modelled as a busy-time (bandwidth) resource.

Each channel serialises the transfers routed to it.  A request arriving at
time ``now`` waits until the channel is free, then occupies it for the
transfer time of its payload.  The returned latency therefore includes
queueing delay, which is how bandwidth contention — the central quantity in
the Banshee evaluation — shows up as performance loss.

:class:`DramChannel` is the per-channel state of that model.
:meth:`repro.dram.device.DramDevice.access_latency` runs the timing model
over it in its own frame, so a transfer costs one Python frame and calls
nothing on a transfer-memo hit.
"""

from __future__ import annotations


class DramChannel:
    """State of one DRAM channel: its timeline, background buffer and open row.

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

    def __init__(self, channel_id: int, background_buffer_cycles: int = 4096) -> None:
        if background_buffer_cycles < 0:
            raise ValueError("background_buffer_cycles must be non-negative")
        self.channel_id = channel_id
        self.background_buffer_cycles = background_buffer_cycles
        self.busy_until = 0
        self.total_busy_cycles = 0
        self._background_backlog = 0
        self._last_row: int = -1
        # Queue delay of the most recent transfer (0 for a background one):
        # :meth:`repro.dram.device.DramDevice.access` reports it.
        self.last_queue_delay = 0

    @property
    def background_backlog_cycles(self) -> int:
        """Buffered background work not yet charged to the channel timeline."""
        return self._background_backlog

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` this channel spent transferring data."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.total_busy_cycles / elapsed_cycles)
