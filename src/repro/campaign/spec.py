"""Declarative campaign specifications.

A campaign is a (scheme x workload x parameter x seed) matrix of simulation
cells.  :class:`SweepGrid` describes one rectangular grid of axes;
:class:`CampaignSpec` bundles one or more grids with the run parameters they
share (trace length, core count, base preset) and expands them into concrete
:class:`~repro.experiments.runner.CampaignCell` objects (re-exported here),
each carrying a fully validated :class:`~repro.sim.config.SystemConfig`.

Specs round-trip through plain dictionaries (:meth:`CampaignSpec.to_dict` /
:meth:`CampaignSpec.from_dict`) so the ``python -m repro.campaign`` CLI can
load them from JSON files.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import DEFAULT_WARMUP_FRACTION, CampaignCell
from repro.sim.config import DramCacheConfig, SystemConfig, check_scheme
from repro.util.serde import dataclass_from_dict
from repro.workloads.registry import validate_workload_name

#: Normalised scheme entry: (display label, scheme name, DramCacheConfig overrides).
SchemeEntry = Tuple[str, str, Dict]

#: Fields a scheme entry's overrides may set (the scheme is the entry's own).
_OVERRIDABLE = frozenset(f.name for f in dataclasses.fields(DramCacheConfig)) - {"scheme"}

PRESETS = ("tiny", "scaled", "paper")

#: Fields that earlier versions of :meth:`CampaignSpec.to_dict` wrote and the
#: spec no longer has: name -> (the field's default, why it went).  Spec
#: files keep them, so :meth:`CampaignSpec.from_dict` drops one that still
#: holds its default and rejects any other value.
_RETIRED_FIELDS: Dict[str, Tuple[object, str]] = {
    "timeline_bounds": (
        None,
        "it bounded the per-record latency histogram of timelines, which was "
        "removed (timelines read the system at engine edges only)",
    ),
}


def normalize_scheme(entry: Union[str, Sequence[object]]) -> SchemeEntry:
    """Accept ``"banshee"``, ``("label", "scheme")`` or ``("label", "scheme", overrides)``.

    The scheme must be one of :data:`~repro.sim.config.SCHEMES` and every
    override key a ``DramCacheConfig`` field.  Both are checked here, at
    spec-construction time, so a typo fails before a store is created or a
    worker process starts simulating.
    """
    if isinstance(entry, str):
        normalized = (entry, entry, {})
    else:
        entry = tuple(entry)
        if len(entry) == 2:
            label, scheme = entry
            normalized = (str(label), str(scheme), {})
        elif len(entry) == 3:
            label, scheme, overrides = entry
            normalized = (str(label), str(scheme), dict(overrides))
        else:
            raise ValueError(f"scheme entry must be a name or a 2/3-tuple, got {entry!r}")
    check_scheme(normalized[1])
    unknown = sorted(set(normalized[2]) - _OVERRIDABLE)
    if unknown:
        raise ValueError(
            f"scheme entry {normalized[0]!r}: overrides {', '.join(map(repr, unknown))} "
            "are not DramCacheConfig fields"
        )
    return normalized


def normalize_workload(name: str) -> str:
    """Validate a workload axis entry.

    Same up-front convention as schemes: a typo fails at spec-construction
    time listing what is available, before any worker process starts
    simulating.
    """
    name = str(name)
    validate_workload_name(name)
    return name


@dataclass
class SweepGrid:
    """One rectangular sweep: the cross product of every axis below.

    Axes whose value is ``None`` leave the preset's default untouched, so the
    default single-``None`` axes contribute exactly one point each and a plain
    scheme x workload matrix stays a scheme x workload matrix.
    """

    schemes: Sequence = ("banshee",)
    workloads: Sequence[str] = ("gcc",)
    seeds: Sequence[int] = (1,)
    cache_sizes: Sequence[Optional[int]] = (None,)
    page_sizes: Sequence[Optional[int]] = (None,)
    replacement_policies: Sequence[Optional[str]] = (None,)
    sampling_coefficients: Sequence[Optional[float]] = (None,)

    def __post_init__(self) -> None:
        for axis in ("schemes", "workloads", "seeds", "cache_sizes", "page_sizes",
                     "replacement_policies", "sampling_coefficients"):
            if not list(getattr(self, axis)):
                raise ValueError(f"sweep axis {axis!r} must not be empty")
        self.schemes = [normalize_scheme(entry) for entry in self.schemes]
        self.workloads = [normalize_workload(name) for name in self.workloads]

    @property
    def num_points(self) -> int:
        count = 1
        for axis in (self.schemes, self.workloads, self.seeds, self.cache_sizes,
                     self.page_sizes, self.replacement_policies, self.sampling_coefficients):
            count *= len(list(axis))
        return count

    def to_dict(self) -> Dict:
        return {
            "schemes": [list(entry) for entry in self.schemes],
            "workloads": list(self.workloads),
            "seeds": list(self.seeds),
            "cache_sizes": list(self.cache_sizes),
            "page_sizes": list(self.page_sizes),
            "replacement_policies": list(self.replacement_policies),
            "sampling_coefficients": list(self.sampling_coefficients),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SweepGrid":
        return dataclass_from_dict(cls, payload)


@dataclass
class CampaignSpec:
    """A named campaign: one or more sweep grids plus shared run parameters."""

    name: str
    grids: List[SweepGrid] = field(default_factory=lambda: [SweepGrid()])
    records_per_core: int = 2000
    scale: float = 1.0
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    #: None keeps each preset's native core count (tiny: 2, scaled: 4, paper: 16).
    num_cores: Optional[int] = None
    preset: str = "tiny"
    #: Attach a timeline observer snapshotting every N records (None = off).
    timeline_interval: Optional[int] = None
    #: Per-cell wall-clock budget for the supervised executor: a lease past
    #: this deadline is revoked and the cell retried (None = no deadline).
    cell_timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.records_per_core <= 0:
            raise ValueError("records_per_core must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.timeline_interval is not None and self.timeline_interval <= 0:
            raise ValueError("timeline_interval must be positive (or None to disable)")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.cell_timeout_seconds is not None:
            self.cell_timeout_seconds = float(self.cell_timeout_seconds)
            if self.cell_timeout_seconds <= 0:
                raise ValueError("cell_timeout_seconds must be positive (or None)")
        if not self.grids:
            raise ValueError("campaign needs at least one sweep grid")
        self.grids = [
            grid if isinstance(grid, SweepGrid) else SweepGrid.from_dict(grid)
            for grid in self.grids
        ]

    # ------------------------------------------------------------------ expansion

    def _base_config(self, scheme: str, seed: int) -> SystemConfig:
        cores = {} if self.num_cores is None else {"num_cores": self.num_cores}
        if self.preset == "tiny":
            return SystemConfig.tiny(scheme=scheme, seed=seed, **cores)
        if self.preset == "scaled":
            return SystemConfig.scaled_default(scheme=scheme, seed=seed, **cores)
        return SystemConfig.paper_default(scheme=scheme).with_overrides(seed=seed, **cores)

    def cells(self) -> List[CampaignCell]:
        """Expand every grid into concrete cells (configs validated eagerly)."""
        expanded: List[CampaignCell] = []
        for grid in self.grids:
            points = itertools.product(
                grid.schemes,
                grid.workloads,
                grid.seeds,
                grid.cache_sizes,
                grid.page_sizes,
                grid.replacement_policies,
                grid.sampling_coefficients,
            )
            for (label, scheme, base_overrides), workload, seed, cache_size, page_size, policy, coefficient in points:
                overrides = dict(base_overrides)
                if page_size is not None:
                    overrides["page_size"] = page_size
                if policy is not None:
                    overrides["banshee_policy"] = policy
                if coefficient is not None:
                    overrides["sampling_coefficient"] = coefficient
                config = self._base_config(scheme, seed)
                if overrides:
                    config = config.with_scheme(scheme, **overrides)
                if cache_size is not None:
                    config = config.with_overrides(
                        in_package_dram=dataclasses.replace(
                            config.in_package_dram, capacity_bytes=cache_size
                        )
                    )
                expanded.append(
                    CampaignCell(
                        label=label,
                        scheme=scheme,
                        workload=workload,
                        seed=seed,
                        records_per_core=self.records_per_core,
                        scale=self.scale,
                        warmup_fraction=self.warmup_fraction,
                        config=config,
                        timeline_interval=self.timeline_interval,
                    )
                )
        return expanded

    @property
    def num_cells(self) -> int:
        return sum(grid.num_points for grid in self.grids)

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "grids": [grid.to_dict() for grid in self.grids],
            "records_per_core": self.records_per_core,
            "scale": self.scale,
            "warmup_fraction": self.warmup_fraction,
            "num_cores": self.num_cores,
            "preset": self.preset,
            "timeline_interval": self.timeline_interval,
            "cell_timeout_seconds": self.cell_timeout_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        payload = dict(payload)
        for name, (old_default, reason) in _RETIRED_FIELDS.items():
            if name in payload and payload.pop(name) != old_default:
                raise ValueError(
                    f"CampaignSpec field {name!r} was retired: {reason}; delete it "
                    f"from the spec (it is ignored only at its old default, {json.dumps(old_default)})"
                )
        return dataclass_from_dict(cls, payload)
