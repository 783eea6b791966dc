"""Host-speed calibration: host seconds -> reference seconds.

On a small shared VM each vCPU runs, for stretches from tens of
milliseconds to over ten seconds, in a fast state or in one 1.4-1.8x
slower (most likely another tenant busy on the same physical core), and
the guest sees no steal time for it.  A whole 20-second run can sit in
the slow state, so no choice among a run's own timings (fastest, median)
can undo it.  Pure-Python code slows by about the same factor whatever it
runs, so a fixed loop timed next to a measurement tells how fast the host
ran during it: :func:`reference_seconds` scales the measurement by
``REFERENCE_LOOP_S / loop seconds``, the time it would have taken on a
host where the loop takes :data:`REFERENCE_LOOP_S`.  The loop is the
benchmark's own code, so no change to the simulator moves it.

The loop probes a dict of 2048 slotted objects and reads and writes their
attributes — the simulator's inner work — and allocates nothing, so its
speed does not depend on the state of the heap.  Pointer chases through
6 and 19 MB of objects were tried as well; over 15-second windows they
tracked the simulator worse than this cache-resident loop (IQR/median of
calibrated throughput 0.06-0.11 against 0.03-0.07 on every workload).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

#: Loop seconds on the host the benchmark was defined on (2-vCPU Xeon VM,
#: fast state).  Any constant would do; this one keeps reference seconds
#: close to host seconds there.
REFERENCE_LOOP_S = 0.0007
LINES = 2048
PROBES = 8192


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


class Calibrator:
    """The calibration loop and its data."""

    def __init__(self) -> None:
        rng = random.Random(20180901)
        lines = [_Line(rng.randrange(1 << 24)) for _ in range(LINES)]
        self._table: Dict[int, _Line] = {line.tag >> 6: line for line in lines}
        # Half the probes hit a resident line, half miss.
        self._probes: List[int] = [rng.randrange(1 << 24) if index % 2 else rng.choice(lines).tag
                                   for index in range(PROBES)]

    def loop_seconds(self) -> float:
        """Host seconds of one run of the loop."""
        table = self._table
        hits = 0
        start = time.perf_counter()
        for address in self._probes:
            line = table.get(address >> 6)
            if line is not None and line.tag == address:
                hits += 1
                line.dirty = not line.dirty
        return time.perf_counter() - start


def reference_seconds(host_s: float, loop_before: float, loop_after: float) -> float:
    """``host_s`` scaled to a host where the loop takes :data:`REFERENCE_LOOP_S`."""
    return host_s * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)
