"""Heterogeneous (multi-programmed) SPEC mixes of Table 4.

Each core runs a different SPEC-like benchmark in its own address-space
slice, modelling the paper's multi-programming environment.  The paper's
mixes list 8 distinct benchmarks duplicated across 16 cores; with fewer
simulated cores the first ``num_cores`` entries of the list are used, which
preserves the character of the mix (a blend of streaming, irregular and
compute-bound programs sharing the DRAM cache).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.sim.config import GB
from repro.workloads.base import TraceBatch, Workload
from repro.workloads.spec import SpecWorkload

#: The benchmark lists of Table 4 ("gems" stands in for GemsFDTD,
#: "leslie" for leslie3d and "cactus" for cactusADM).
MIX_DEFINITIONS: Dict[str, List[str]] = {
    "mix1": ["libquantum", "mcf", "soplex", "milc", "bwaves", "lbm", "omnetpp", "gcc"],
    "mix2": ["libquantum", "mcf", "soplex", "milc", "lbm", "omnetpp", "gems", "bzip2"],
    "mix3": ["mcf", "soplex", "milc", "bwaves", "gcc", "lbm", "leslie", "cactus"],
}


class MixWorkload(Workload):
    """A multi-programmed mixture: one benchmark instance per core."""

    def __init__(self, mix_name: str, num_cores: int, scale: float = 1.0, seed: int = 1,
                 page_size: int = 4096) -> None:
        if mix_name not in MIX_DEFINITIONS:
            raise ValueError(f"unknown mix {mix_name!r}; known: {sorted(MIX_DEFINITIONS)}")
        benchmarks = MIX_DEFINITIONS[mix_name]
        assignment = [benchmarks[core % len(benchmarks)] for core in range(num_cores)]
        self._members: List[SpecWorkload] = [
            SpecWorkload(benchmark, num_cores=1, scale=scale, seed=seed + index, page_size=page_size)
            for index, benchmark in enumerate(assignment)
        ]
        footprint = sum(member.footprint_bytes for member in self._members)
        mlp = sum(member.mlp for member in self._members) / len(self._members)
        super().__init__(mix_name, num_cores, footprint_bytes=footprint, mlp=mlp,
                         page_size=page_size, seed=seed)
        self.assignment = assignment

    def trace_batches(self, core_id: int) -> Iterator[TraceBatch]:
        """Each core runs its benchmark in a private 1 GB-aligned slice."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError("core_id out of range")
        member = self._members[core_id]
        return member.trace_batches(0, base=core_id * GB)

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["assignment"] = list(self.assignment)
        return info

