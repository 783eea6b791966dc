"""Declarative scheme variants: a name plus configuration overrides.

The paper's evaluation is not just five schemes on Figure 4 — Sections 5–6
sweep design parameters (tag-buffer size, FBR sampling coefficient,
associativity, page sizes, replacement policies) over the same baselines.
A :class:`SchemeVariant` makes one such sensitivity point a *named
configuration*, resolvable anywhere a scheme name is accepted
(``SystemConfig``, ``create_scheme``, campaign specs, the perf harness),
with zero new scheme code:

>>> resolve_scheme("banshee-tb4k")
('banshee', {'tag_buffer_entries': 4096})

Resolution happens in :func:`repro.dramcache.factory.create_scheme`: the
variant's overrides are applied onto the configuration's ``dram_cache``
before the base scheme class is constructed (variant overrides therefore win
over field-level overrides for the same key; everything else passes
through).  Each variant's ``axis`` names the design dimension it perturbs;
:func:`describe_variants` lists the registry grouped by axis.

New variants can be registered at runtime with :func:`register_variant` —
the intended extension point for new scenarios (see ROADMAP.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

#: Names of the concrete scheme implementations the factory can build.
BASE_SCHEMES: Tuple[str, ...] = (
    "nocache",
    "cacheonly",
    "alloy",
    "unison",
    "tdc",
    "hma",
    "banshee",
)

#: Design axes used to group variants in sweeps and documentation.
VARIANT_AXES: Tuple[str, ...] = (
    "tag-buffer",
    "sampling",
    "associativity",
    "page-size",
    "replacement",
    "fill-policy",
    "bandwidth",
    "interval",
)


@dataclass(frozen=True)
class SchemeVariant:
    """A named point in the design space: base scheme + config overrides."""

    name: str
    base: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    axis: str = "replacement"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"variant name must be a non-empty token, got {self.name!r}")
        if self.base not in BASE_SCHEMES:
            raise ValueError(f"variant base must be one of {BASE_SCHEMES}, got {self.base!r}")
        if self.axis not in VARIANT_AXES:
            raise ValueError(f"variant axis must be one of {VARIANT_AXES}, got {self.axis!r}")
        if "scheme" in self.overrides:
            raise ValueError("variant overrides must not contain 'scheme' (set 'base' instead)")
        bad = set(self.overrides) - _dram_cache_fields()
        if bad:
            raise ValueError(
                f"variant {self.name!r} overrides unknown DramCacheConfig fields: {sorted(bad)}"
            )
        # Freeze the mapping so a registered variant cannot drift.
        object.__setattr__(self, "overrides", dict(self.overrides))


def _dram_cache_fields() -> set:
    # Imported here: repro.sim.config consults this registry from
    # DramCacheConfig.__post_init__, so a module-level import would be a
    # circular dependency.
    from repro.sim.config import DramCacheConfig

    return {f.name for f in dataclasses.fields(DramCacheConfig)}


_VARIANTS: Dict[str, SchemeVariant] = {}


def register_variant(variant: SchemeVariant, replace: bool = False) -> SchemeVariant:
    """Add ``variant`` to the registry; returns it for chaining.

    Registration is the extension point for new scenarios: declare the
    configuration delta, and the campaign/perf/figure machinery can run it
    by name.  Names must not shadow a base scheme, and re-registering an
    existing name requires ``replace=True``.
    """
    if variant.name in BASE_SCHEMES:
        raise ValueError(f"variant name {variant.name!r} shadows a base scheme")
    if variant.name in _VARIANTS and not replace:
        raise ValueError(f"variant {variant.name!r} already registered (pass replace=True)")
    _VARIANTS[variant.name] = variant
    return variant


def get_variant(name: str) -> Optional[SchemeVariant]:
    """The registered variant called ``name``, if any."""
    return _VARIANTS.get(name)


def available_scheme_names() -> List[str]:
    """Every name ``resolve_scheme`` accepts: base schemes plus variants."""
    return sorted(BASE_SCHEMES) + sorted(_VARIANTS)


def resolve_scheme(name: str) -> Tuple[str, Dict[str, object]]:
    """Resolve ``name`` to ``(base_scheme, dram_cache_overrides)``.

    Base scheme names resolve to themselves with no overrides.  Unknown
    names raise a ``ValueError`` that lists every available name, so callers
    (CLIs in particular) fail loudly and helpfully up front.
    """
    if name in BASE_SCHEMES:
        return name, {}
    variant = _VARIANTS.get(name)
    if variant is not None:
        return variant.base, dict(variant.overrides)
    raise ValueError(
        f"unknown DRAM cache scheme or variant {name!r}; "
        f"available: {', '.join(available_scheme_names())}"
    )


def describe_variants() -> str:
    """One line per variant (grouped by axis) for CLI ``--help`` epilogs."""
    lines = []
    for axis in VARIANT_AXES:
        members = [v for v in _VARIANTS.values() if v.axis == axis]
        if not members:
            continue
        lines.append(f"{axis}:")
        for variant in sorted(members, key=lambda v: v.name):
            deltas = ", ".join(f"{k}={v}" for k, v in sorted(variant.overrides.items()))
            text = f"  {variant.name:<20s} {variant.base} with {deltas}"
            if variant.description:
                text += f" — {variant.description}"
            lines.append(text)
    return "\n".join(lines)


def _builtin(name: str, base: str, axis: str, description: str, **overrides) -> None:
    register_variant(
        SchemeVariant(name=name, base=base, overrides=overrides, axis=axis, description=description)
    )


# --------------------------------------------------------------------------- built-ins
# The named points of the paper's sensitivity studies (Sections 5-6).  Sizes
# and coefficients are chosen to bracket each default the way the paper's
# sweeps do; absolute magnitudes track the scaled-down presets.

# Tag-buffer size (Section 5.3 / Figure sweep on tag-buffer entries).
_builtin("banshee-tb128", "banshee", "tag-buffer",
         "Banshee with a small 128-entry tag buffer", tag_buffer_entries=128)
_builtin("banshee-tb4k", "banshee", "tag-buffer",
         "Banshee with a large 4096-entry tag buffer", tag_buffer_entries=4096)

# FBR sampling coefficient (Section 4.2.1 / Figure 9).
_builtin("banshee-sample01", "banshee", "sampling",
         "Banshee sampling 1% of accesses at full miss rate", sampling_coefficient=0.01)
_builtin("banshee-sample32", "banshee", "sampling",
         "Banshee sampling 32% of accesses at full miss rate", sampling_coefficient=0.32)
_builtin("banshee-nosample", "banshee", "sampling",
         "Banshee ablation: counters updated on every access (CHOP-like)",
         banshee_policy="fbr-nosample")

# DRAM-cache associativity / placement (Table 6).
_builtin("banshee-2way", "banshee", "associativity",
         "Banshee with 2-way set-associative placement", ways=2)
_builtin("banshee-8way", "banshee", "associativity",
         "Banshee with 8-way set-associative placement", ways=8)
_builtin("unison-2way", "unison", "associativity",
         "Unison Cache with 2-way sets", ways=2)

# Page size (Section 5.4.1 / Table 5 direction, scaled down).
_builtin("banshee-2kpage", "banshee", "page-size",
         "Banshee managing 2 KB pages", page_size=2048)
_builtin("unison-2kpage", "unison", "page-size",
         "Unison Cache managing 2 KB pages", page_size=2048)
_builtin("unison-8kpage", "unison", "page-size",
         "Unison Cache managing 8 KB pages", page_size=8192)

# Replacement policy ablations (Figure 7).
_builtin("banshee-lru", "banshee", "replacement",
         "Banshee ablation: page-granularity LRU, replace on every miss",
         banshee_policy="lru")

# Stochastic fill probability (Alloy/BEAR, Section 5.1.1).
_builtin("alloy-p10", "alloy", "fill-policy",
         "Alloy 0.1: stochastic fills with probability 0.1",
         alloy_replacement_probability=0.1)

# Bandwidth balancing (Section 5.4.2, BATMAN-style).
_builtin("banshee-batman", "banshee", "bandwidth",
         "Banshee with the bandwidth balancer enabled", bandwidth_balance=True)

# Software remap interval (HMA hot-page migration cadence).
_builtin("hma-10ms", "hma", "interval",
         "HMA remapping every 10 ms instead of 100 ms", hma_interval_ms=10.0)
