"""Workload registry: build any workload of the evaluation by name.

The sixteen workloads of Figure 4 (five graph benchmarks, eight SPEC
benchmarks, three mixes) are all constructible here, plus every additional
SPEC benchmark used inside the mixes.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.workloads.base import Workload
from repro.workloads.graph import (
    Graph500Bfs,
    LshWorkload,
    PageRankWorkload,
    SgdWorkload,
    TriangleCountWorkload,
)
from repro.workloads.mixes import MIX_DEFINITIONS, MixWorkload
from repro.workloads.spec import SPEC_PARAMS, SpecWorkload

#: The workloads of the paper's evaluation, in the order of Figure 4.
EVALUATION_WORKLOADS: List[str] = [
    "pagerank",
    "tri_count",
    "graph500",
    "sgd",
    "lsh",
    "bwaves",
    "lbm",
    "mcf",
    "omnetpp",
    "libquantum",
    "gcc",
    "milc",
    "soplex",
    "mix1",
    "mix2",
    "mix3",
]

GRAPH_WORKLOADS: List[str] = ["pagerank", "tri_count", "graph500", "sgd", "lsh"]

_GRAPH_FACTORIES: Dict[str, Callable] = {
    "pagerank": PageRankWorkload,
    "tri_count": TriangleCountWorkload,
    "graph500": Graph500Bfs,
    "sgd": SgdWorkload,
    "lsh": LshWorkload,
}

def available_workloads() -> List[str]:
    """Every name :func:`get_workload` accepts."""
    names = list(_GRAPH_FACTORIES) + sorted(SPEC_PARAMS) + sorted(MIX_DEFINITIONS)
    return names


def _unknown_workload_error(name: str) -> ValueError:
    return ValueError(f"unknown workload {name!r}; available: {', '.join(available_workloads())}")


def validate_workload_name(name: str) -> None:
    """Reject an unknown workload name loudly, before any simulation.

    Raises ``ValueError`` with the available names on a miss.
    """
    if name not in _GRAPH_FACTORIES and name not in SPEC_PARAMS and name not in MIX_DEFINITIONS:
        raise _unknown_workload_error(name)


def get_workload(
    name: str,
    num_cores: int,
    scale: float = 1.0,
    seed: int = 1,
    page_size: int = 4096,
) -> Workload:
    """Build a workload by name.

    Args:
        name: one of :func:`available_workloads`.
        num_cores: number of simulated cores.
        scale: footprint scaling factor (1.0 = the scaled-default sizing).
        seed: RNG seed (traces are deterministic in the seed).
        page_size: 4096 for regular pages, 2 MB for the large-page studies.
    """
    if name in _GRAPH_FACTORIES:
        return _GRAPH_FACTORIES[name](num_cores, scale=scale, seed=seed, page_size=page_size)
    if name in SPEC_PARAMS:
        return SpecWorkload(name, num_cores, scale=scale, seed=seed, page_size=page_size)
    if name in MIX_DEFINITIONS:
        return MixWorkload(name, num_cores, scale=scale, seed=seed, page_size=page_size)
    raise _unknown_workload_error(name)
