"""Workload generators: graph analytics, SPEC-like and mixed workloads."""

from repro.workloads.base import Workload
from repro.workloads.graph import (
    Graph500Bfs,
    GraphWorkload,
    LshWorkload,
    PageRankWorkload,
    SgdWorkload,
    TriangleCountWorkload,
)
from repro.workloads.mixes import MixWorkload
from repro.workloads.registry import (
    available_workloads,
    get_workload,
    validate_workload_name,
)
from repro.workloads.spec import SpecWorkload
from repro.workloads.synthetic import SyntheticWorkload, ZipfPagePattern

__all__ = [
    "Workload",
    "GraphWorkload",
    "Graph500Bfs",
    "LshWorkload",
    "PageRankWorkload",
    "SgdWorkload",
    "TriangleCountWorkload",
    "MixWorkload",
    "available_workloads",
    "get_workload",
    "validate_workload_name",
    "SpecWorkload",
    "SyntheticWorkload",
    "ZipfPagePattern",
]
