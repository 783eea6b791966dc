"""In-memory span tracer for the benchmark's traced runs.

Spans are aggregated per ``(layer, parent layer)`` edge as
``[calls, total seconds, self seconds]``.  A span's self time is its
duration minus the durations of the spans nested directly inside it, so
the self times of every layer (root included) add up to the root spans'
wall time.

Layer boundaries inside the simulator are timed by replacing public
methods *on their classes* with timing wrappers.  ``System``,
``MemoryControllerSet``, ``DramCacheScheme`` and ``BatchRunner`` hoist bound
methods when they are constructed, so :meth:`Tracer.install` must run
before any ``System`` of a traced round is built, and :meth:`Tracer.remove`
restores the originals for the untraced rounds.  The wrappers only time
and count calls; they never touch arguments or results, so traced and
untraced runs simulate bit-identically.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (owner class, method name, layer) triples handed to :meth:`Tracer.install`.
Target = Tuple[type, str, str]


class Tracer:
    """Nested span timing aggregated per (layer, parent) edge."""

    def __init__(self) -> None:
        #: (layer, parent layer or None) -> [calls, total_s, self_s]
        self.edges: Dict[Tuple[str, Optional[str]], List[float]] = {}
        # Open spans, innermost last: [layer, seconds spent in child spans].
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------ recording

    def _close(self, frame: list, parent: Optional[list], elapsed: float) -> None:
        key = (frame[0], parent[0] if parent is not None else None)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += elapsed
        edge[2] += elapsed - frame[1]
        if parent is not None:
            parent[1] += elapsed

    def _timed(self, layer: str, function: Callable) -> Callable:
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(frame, parent, elapsed)

        return traced

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as one span of ``layer``."""
        parent = self._stack[-1] if self._stack else None
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(frame, parent, elapsed)

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target method on its class."""
        for owner, name, layer in targets:
            original = owner.__dict__[name]
            self._patched.append((owner, name, original))
            setattr(owner, name, self._timed(layer, original))

    def remove(self) -> None:
        """Restore every wrapped method."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ reading

    def layer(self, name: str) -> Tuple[int, float, float]:
        """(calls, total seconds, self seconds) of ``name``, summed over its parents."""
        calls, total, self_s = 0, 0.0, 0.0
        for (layer, _parent), (edge_calls, edge_total, edge_self) in self.edges.items():
            if layer == name:
                calls += int(edge_calls)
                total += edge_total
                self_s += edge_self
        return calls, total, self_s


@contextlib.contextmanager
def no_span(_layer: str) -> Iterator[None]:
    """Stand-in for :meth:`Tracer.span` in untraced rounds."""
    yield
