"""Statistical address-pattern generators.

The SPEC-like workloads (and parts of the graph workloads) are modelled as
mixtures of a small number of archetypal access patterns:

* :class:`StreamPattern` — long sequential runs over a region (lbm, bwaves,
  libquantum): excellent spatial locality, little reuse.
* :class:`ZipfPagePattern` — pages chosen with a Zipf popularity distribution
  and a configurable number of sequential line accesses per page visit: this
  exposes both the temporal-reuse knob (Zipf exponent) and the spatial-
  locality knob (run length), the two properties that separate the DRAM-cache
  schemes.
* :class:`PointerChasePattern` — dependent, effectively random line accesses
  over a region (mcf, omnetpp): poor spatial locality, low MLP.

A :class:`SyntheticWorkload` composes weighted patterns into per-core traces.
Addresses are generated in bulk with numpy and emitted as column batches,
which keeps generation fast enough to be negligible next to simulation time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.config import CACHELINE_SIZE
from repro.workloads.base import TraceBatch, Workload

_CHUNK = 4096


class AccessPattern(ABC):
    """One address-generation archetype."""

    def __init__(self, region_base: int, region_bytes: int) -> None:
        if region_bytes <= 0:
            raise ValueError("region_bytes must be positive")
        self.region_base = region_base
        self.region_bytes = region_bytes

    @abstractmethod
    def addresses(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Generate ``count`` line-aligned addresses inside the region."""


class StreamPattern(AccessPattern):
    """Sequential streaming with wrap-around."""

    def __init__(self, region_base: int, region_bytes: int, stride: int = CACHELINE_SIZE) -> None:
        super().__init__(region_base, region_bytes)
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.stride = stride
        self._cursor = 0

    def addresses(self, rng: np.random.Generator, count: int) -> np.ndarray:
        offsets = (self._cursor + np.arange(count, dtype=np.int64) * self.stride) % self.region_bytes
        self._cursor = int((self._cursor + count * self.stride) % self.region_bytes)
        return self.region_base + (offsets // CACHELINE_SIZE) * CACHELINE_SIZE


class PointerChasePattern(AccessPattern):
    """Dependent pseudo-random accesses (uniform over the region)."""

    def addresses(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lines = self.region_bytes // CACHELINE_SIZE
        picks = rng.integers(0, lines, size=count, dtype=np.int64)
        return self.region_base + picks * CACHELINE_SIZE


class ZipfPagePattern(AccessPattern):
    """Zipf-popular pages with sequential bursts inside each visited page."""

    def __init__(
        self,
        region_base: int,
        region_bytes: int,
        page_size: int = 4096,
        zipf_alpha: float = 0.7,
        burst_lines: int = 4,
    ) -> None:
        super().__init__(region_base, region_bytes)
        if page_size <= 0 or region_bytes < page_size:
            raise ValueError("region must hold at least one page")
        if burst_lines <= 0:
            raise ValueError("burst_lines must be positive")
        self.page_size = page_size
        self.zipf_alpha = zipf_alpha
        self.burst_lines = burst_lines
        self.num_pages = region_bytes // page_size
        ranks = np.arange(1, self.num_pages + 1, dtype=np.float64)
        weights = ranks ** (-zipf_alpha)
        self._cdf = np.cumsum(weights / weights.sum())
        self._permutation: np.ndarray = None  # lazily built per-rng is unnecessary; fixed shuffle below

    def _pages(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self._permutation is None:
            # Spread hot pages across the address space (and thus across the
            # DRAM-cache sets and memory controllers) instead of clustering
            # them at the start of the region.
            self._permutation = rng.permutation(self.num_pages)
        draws = rng.random(count)
        ranks = np.searchsorted(self._cdf, draws)
        return self._permutation[np.clip(ranks, 0, self.num_pages - 1)]

    def addresses(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lines_per_page = self.page_size // CACHELINE_SIZE
        burst = min(self.burst_lines, lines_per_page)
        visits = (count + burst - 1) // burst
        pages = self._pages(rng, visits)
        starts = rng.integers(0, max(1, lines_per_page - burst + 1), size=visits, dtype=np.int64)
        offsets = np.repeat(pages * lines_per_page + starts, burst)[:count]
        offsets = offsets + np.tile(np.arange(burst, dtype=np.int64), visits)[:count]
        return self.region_base + offsets * CACHELINE_SIZE


class SyntheticWorkload(Workload):
    """A workload defined as a weighted mixture of access patterns.

    ``pattern_factories`` is a sequence of ``(weight, factory)`` pairs, where
    each factory builds a *fresh* :class:`AccessPattern` when called with the
    core's base address.  Fresh instances per core keep every core's trace
    independent of how the simulation engine interleaves cores, which is what
    guarantees that all DRAM-cache schemes see byte-identical traces.
    """

    def __init__(
        self,
        name: str,
        num_cores: int,
        pattern_factories: Sequence[Tuple[float, "PatternFactory"]],
        footprint_bytes: int,
        mean_gap: float = 5.0,
        write_fraction: float = 0.2,
        mlp: float = 6.0,
        page_size: int = 4096,
        seed: int = 1,
    ) -> None:
        super().__init__(name, num_cores, footprint_bytes, mlp=mlp, page_size=page_size, seed=seed)
        if not pattern_factories:
            raise ValueError("at least one access pattern is required")
        if mean_gap < 1.0:
            raise ValueError("mean_gap must be >= 1")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        total_weight = sum(weight for weight, _factory in pattern_factories)
        if total_weight <= 0:
            raise ValueError("pattern weights must sum to a positive value")
        self.pattern_factories: List[Tuple[float, PatternFactory]] = [
            (weight / total_weight, factory) for weight, factory in pattern_factories
        ]
        self.mean_gap = mean_gap
        self.write_fraction = write_fraction

    def core_base(self, core_id: int) -> int:
        """Base address of ``core_id``'s address-space slice (0 = shared space)."""
        return 0

    def trace_batches(self, core_id: int, base: Optional[int] = None) -> Iterator[TraceBatch]:
        """Generate ``(gaps, addrs, writes)`` column chunks for one core.

        ``base`` overrides :meth:`core_base` (a mix places each member in
        its own slice).  Each chunk draws from the core's RNG in a fixed
        order (pattern split, addresses, shuffle, gaps, write flags), so
        record streams stay bit-identical across releases.
        """
        rng = self.rng_for_core(core_id).generator
        region_base = base if base is not None else self.core_base(core_id)
        patterns = [(weight, factory(region_base)) for weight, factory in self.pattern_factories]
        weights = np.array([weight for weight, _pattern in patterns])
        while True:
            # Pick how many records each pattern contributes to this chunk.
            counts = rng.multinomial(_CHUNK, weights)
            chunks = []
            for (_, pattern), count in zip(patterns, counts):
                if count > 0:
                    chunks.append(pattern.addresses(rng, int(count)))
            addrs = np.concatenate(chunks)
            rng.shuffle(addrs)
            gaps = rng.geometric(1.0 / self.mean_gap, size=len(addrs))
            writes = rng.random(len(addrs)) < self.write_fraction
            yield gaps.tolist(), addrs.tolist(), writes.tolist()


#: A callable returning a fresh AccessPattern (typing alias for readability).
PatternFactory = "callable"
