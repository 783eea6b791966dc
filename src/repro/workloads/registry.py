"""Workload registry: build any workload of the evaluation by name.

The sixteen workloads of Figure 4 (five graph benchmarks, eight SPEC
benchmarks, three mixes) are all constructible here, plus every additional
SPEC benchmark used inside the mixes.

Beyond generator names, the registry resolves ``trace:<path>`` to a
:class:`~repro.trace.workload.TraceWorkload` replaying a captured
``.rtrace`` file — so captured traces run everywhere a workload name is
accepted (``SystemConfig`` harnesses, ``repro.campaign``, the figure
functions).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

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

#: Prefix that resolves a name to a captured-trace replay.
TRACE_PREFIX = "trace:"


def trace_path(name: str) -> Optional[str]:
    """The absolute trace-file path of a ``trace:`` name, else ``None``.

    The single place the prefix is stripped and the path resolved — cell
    keys, spec normalisation and workload construction must all agree on
    the name form.
    """
    if not name.startswith(TRACE_PREFIX):
        return None
    return os.path.abspath(name[len(TRACE_PREFIX):])


def available_workloads() -> List[str]:
    """Every generator name :func:`get_workload` accepts.

    ``trace:<path>`` names are additionally accepted for any readable
    ``.rtrace`` file (see :mod:`repro.trace`); being path-valued they are
    not enumerable here.
    """
    names = list(_GRAPH_FACTORIES) + sorted(SPEC_PARAMS) + sorted(MIX_DEFINITIONS)
    return names


def _unknown_workload_error(name: str) -> ValueError:
    return ValueError(
        f"unknown workload {name!r}; available: {', '.join(available_workloads())} "
        f"(or '{TRACE_PREFIX}<path>.rtrace' to replay a captured trace — "
        f"see python -m repro.trace)"
    )


def validate_workload_name(name: str) -> None:
    """Reject an unresolvable workload name loudly, before any simulation.

    Generator names are checked against the registry; ``trace:`` names are
    checked for an existing, well-formed trace file (header and footer are
    parsed — a truncated capture fails here, not mid-campaign).  Raises
    ``ValueError`` with the available names on a miss.
    """
    path = trace_path(name)
    if path is not None:
        from repro.trace.format import read_meta

        if not os.path.exists(path):
            raise ValueError(f"trace file not found for workload {name!r}: {path}")
        read_meta(path)  # raises TraceFormatError (a ValueError) if invalid
        return
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
        name: one of :func:`available_workloads`, or ``trace:<path>`` to
            replay a captured ``.rtrace`` file.
        num_cores: number of simulated cores.  A trace replay must be run
            with the core count it was captured with (remap the trace to
            change it).
        scale: footprint scaling factor (1.0 = the scaled-default sizing).
            Ignored by trace replays — a trace is literal (use the
            ``scale`` transform instead).
        seed: RNG seed (traces are deterministic in the seed).  Ignored by
            trace replays for the same reason.
        page_size: 4096 for regular pages, 2 MB for the large-page studies.
            A trace replay must be run at the page size it was captured
            with (a mismatch raises — re-capture at the target page size).
    """
    path = trace_path(name)
    if path is not None:
        # Imported lazily: repro.trace builds workloads through this module
        # (capture by name), so a module-level import would be circular.
        from repro.trace.workload import TraceWorkload

        return TraceWorkload(path, num_cores=num_cores, page_size=page_size)
    if name in _GRAPH_FACTORIES:
        return _GRAPH_FACTORIES[name](num_cores, scale=scale, seed=seed, page_size=page_size)
    if name in SPEC_PARAMS:
        return SpecWorkload(name, num_cores, scale=scale, seed=seed, page_size=page_size)
    if name in MIX_DEFINITIONS:
        return MixWorkload(name, num_cores, scale=scale, seed=seed, page_size=page_size)
    raise _unknown_workload_error(name)
