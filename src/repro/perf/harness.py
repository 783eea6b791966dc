"""Record-generation timing: drain a workload's streams without simulating."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.workloads.base import Workload


def measure_generation(workload: Workload, records_per_core: int) -> float:
    """Time a pure record-generation pass (no simulation) over the budget.

    Drains each core's column batches for ``records_per_core`` records the
    way the batch engine pulls them, so the measurement covers generator
    arithmetic plus iteration overhead, and nothing else.
    """
    start = time.perf_counter()
    for core_id in range(workload.num_cores):
        drained = 0
        for _gaps, addrs, _writes in workload.trace_batches(core_id):
            drained += len(addrs)
            if drained >= records_per_core:
                break
    return time.perf_counter() - start
