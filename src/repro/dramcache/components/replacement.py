"""Frequency-based replacement with sampled counter updates (Algorithm 1).

Banshee's replacement policy is split into two composable parts:

* :class:`AdaptiveSampler` — the decision of *whether* to run the policy at
  all for a given access: sample rate = recent miss rate × sampling
  coefficient (Section 4.2.1), so a cache that is already working well stops
  paying metadata traffic;
* :class:`SampledFrequencyPolicy` — the decision of *what* to do once
  sampled: bump the page's frequency counter, start tracking it as a
  candidate, or (when a candidate's counter exceeds the coldest cached
  page's counter by the replacement threshold) order a replacement.

The policy operates purely on :class:`~repro.core.frequency.FrequencySetMetadata`
state and the deterministic RNG — it decides, the scheme executes (traffic
charging, residency updates, PTE remaps).  This keeps the RNG draw order
identical to the original monolithic implementation, which the hot-path
goldens pin.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.frequency import FrequencySetMetadata
from repro.sim.stats import MissRateWindow, StatsSet
from repro.util.rng import DeterministicRng


class AdaptiveSampler:
    """Miss-rate-proportional sampling of replacement-policy updates."""

    __slots__ = ("miss_window", "coefficient", "always", "_random")

    def __init__(
        self,
        miss_window: MissRateWindow,
        coefficient: float,
        rng: DeterministicRng,
        always: bool = False,
    ) -> None:
        self.miss_window = miss_window
        self.coefficient = coefficient
        self.always = always
        self._random = rng.generator.random

    def should_update(self) -> bool:
        """Draw the sampling decision for the current access.

        The probability is the window's miss-rate estimate (the formula of
        :attr:`MissRateWindow.rate`, computed in this frame because it runs
        on every demand access) times the sampling coefficient.  Like
        :meth:`DeterministicRng.chance`, a probability <= 0 or >= 1 decides
        without an RNG draw, and so does the ``fbr-nosample`` ablation:
        only a probability strictly between 0 and 1 consumes one draw.
        """
        if self.always:
            return True
        window = self.miss_window
        total = window._hits + window._misses
        if total >= window.window // 4:
            probability = 0.5 * (window._rate + window._misses / total) * self.coefficient
        else:
            probability = window._rate * self.coefficient
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random() < probability


class SampledFrequencyPolicy:
    """The per-set counter update and replacement decision of Algorithm 1."""

    __slots__ = ("metadata", "threshold", "stats", "_rng")

    def __init__(
        self,
        metadata: List[FrequencySetMetadata],
        threshold: int,
        rng: DeterministicRng,
        stats: StatsSet,
    ) -> None:
        self.metadata = metadata
        self.threshold = threshold
        self.stats = stats
        self._rng = rng

    def update(self, set_index: int, page: int) -> Optional[Tuple[int, int]]:
        """Run one sampled counter update for ``page``.

        Returns ``(candidate_index, victim_way)`` when the policy orders a
        replacement (the candidate's counter beat the coldest cached page by
        more than the threshold), else ``None``.
        """
        meta = self.metadata[set_index]
        cached_way = meta.find_cached(page)
        candidate_index = meta.find_candidate(page)

        if cached_way is not None:
            meta.increment(meta.cached[cached_way])
        elif candidate_index is not None:
            slot = meta.candidates[candidate_index]
            meta.increment(slot)
            min_way, min_count = meta.min_cached()
            if slot.count > min_count + self.threshold:
                # One decision tuple per ordered replacement (threshold-gated,
                # rare by design).  # repro: allow[hotpath-alloc]
                return (candidate_index, min_way)
        else:
            self._track_new_candidate(meta, page)
        return None

    def _track_new_candidate(self, meta: FrequencySetMetadata, page: int) -> None:
        """Lines 17-23 of Algorithm 1: probabilistically start tracking ``page``."""
        if not meta.candidates:
            return
        index = self._rng.randint(0, len(meta.candidates))
        victim = meta.candidates[index]
        probability = 1.0 if not victim.valid or victim.count == 0 else 1.0 / victim.count
        if self._rng.chance(probability):
            meta.install_candidate(index, page, count=1)
            self.stats.inc("candidate_installs")
