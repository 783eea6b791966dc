"""Physical frame allocation.

The simulator normally runs with identity virtual→physical mapping (the
address streams emitted by the workload generators are already physical-like)
but the allocator exists so that non-identity mappings and page aliasing can
be exercised by tests and by the HMA baseline.
"""

from __future__ import annotations


class FrameAllocator:
    """Monotonic physical frame allocator with a free list."""

    def __init__(self, first_frame: int = 0) -> None:
        if first_frame < 0:
            raise ValueError("first_frame must be non-negative")
        self._next = first_frame
        self._free: list = []
        self.allocated = 0

    def allocate(self) -> int:
        """Allocate one physical frame number."""
        self.allocated += 1
        if self._free:
            return self._free.pop()
        frame = self._next
        self._next += 1
        return frame

    def free(self, frame: int) -> None:
        """Return a frame to the allocator."""
        if frame < 0:
            raise ValueError("frame must be non-negative")
        self.allocated -= 1
        self._free.append(frame)
