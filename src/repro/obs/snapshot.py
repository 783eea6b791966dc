"""Full engine-state snapshots: capture, serialize, restore, resume.

A snapshot is the whole :class:`~repro.sim.system.System` pickled at an
engine edge — every core, TLB, cache, DRAM channel and scheme component
down to each RNG stream — plus the progress needed to resume: records
processed, per-core consumed counts, and whether measurement has begun.
No code here names a simulator class, so state a component gains is
captured without a codec to extend.  ``System.__getstate__`` leaves only
the workload (its generators hold lambdas) behind;
:meth:`SimulationEngine.restore` swaps the unpickled system in with the
live workload re-attached, and the next run continues **bit-identically**
to the uninterrupted one in every engine mode (the engine fast-forwards
each core's deterministic stream by its consumed count).

The pickle rides as base64 text in a JSON envelope (kind, version, config
and its digest, source digest, workload metadata, progress), so snapshot
files stay atomic ``*.json`` files.  A pickle is only valid for the code
that wrote it: :func:`source_digest` fingerprints the ``repro`` sources,
Python and numpy, and a mismatch is rejected before anything is
unpickled.  Snapshots are trusted local files — unpickling runs code, so
never load one from elsewhere.  :func:`state_view` renders a snapshot as
read-only JSON for reading and diffing snapshots
(``python -m repro.obs summarize --snapshot PATH --json``).

Snapshots are how a campaign cell resumes: ``campaign run
--snapshot-every N`` saves one every N processed records, and a retried or
re-run cell restores it and continues instead of starting from record zero.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import pickle
import sys
import tempfile
import types
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.sim.config import SystemConfig, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.batch import EngineCursor
    from repro.sim.system import System

#: Bumped whenever the snapshot envelope layout changes incompatibly.
SNAPSHOT_VERSION = 2

#: Marker distinguishing snapshot files from other JSON artifacts.
SNAPSHOT_KIND = "repro-engine-snapshot"


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 of everything a pickled ``System`` depends on.

    Covers the sorted relative paths and bytes of every ``*.py`` in the
    ``repro`` package, the Python major.minor and the numpy version.
    Computed on first use, once per process.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    major, minor = sys.version_info[:2]
    digest.update(f"python {major}.{minor}\0numpy {np.__version__}".encode("utf-8"))
    return digest.hexdigest()


def _check_format(kind: Any, version: Any) -> None:
    if kind != SNAPSHOT_KIND:
        raise ValueError(f"not an engine snapshot (kind={kind!r})")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version!r} not supported (expected {SNAPSHOT_VERSION})"
        )


class EngineSnapshot:
    """One captured engine state: config identity + progress + pickled system.

    ``to_dict``/``from_dict`` are exact inverses; the dict form survives a
    JSON round-trip unchanged (the round-trip exactness is pinned by tests).
    ``system`` is the base64 text of the pickled :class:`System`.
    """

    def __init__(
        self,
        config: Dict[str, Any],
        config_digest: str,
        workload: Optional[Dict[str, Any]],
        progress: Dict[str, Any],
        system: str,
        source_digest: str,
        version: int = SNAPSHOT_VERSION,
        kind: str = SNAPSHOT_KIND,
    ) -> None:
        self.version = version
        self.kind = kind
        self.config = config
        self.config_digest = config_digest
        self.source_digest = source_digest
        self.workload = workload
        self.progress = progress
        self.system = system

    # ------------------------------------------------------------------ serde

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "kind": self.kind,
            "config": self.config,
            "config_digest": self.config_digest,
            "source_digest": self.source_digest,
            "workload": self.workload,
            "progress": self.progress,
            "system": self.system,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EngineSnapshot":
        _check_format(payload.get("kind"), payload.get("version"))
        return cls(
            config=payload["config"],
            config_digest=payload["config_digest"],
            source_digest=payload["source_digest"],
            workload=payload["workload"],
            progress=payload["progress"],
            system=payload["system"],
            version=payload["version"],
            kind=payload["kind"],
        )

    def save(self, path: str) -> str:
        """Atomically write the snapshot as JSON; returns ``path``."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "EngineSnapshot":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------ restore

    def check_restorable(self) -> None:
        """Raise ``ValueError`` unless this code can restore the snapshot.

        Checks the kind, the version and the source digest.  Call it before
        reading anything else the snapshot carries: a snapshot written by
        other sources may embed a config this code no longer parses.
        """
        _check_format(self.kind, self.version)
        live_source = source_digest()
        if self.source_digest != live_source:
            raise ValueError(
                "snapshot was captured by different simulator code "
                f"(source {self.source_digest[:12]}, live {live_source[:12]}); "
                "pickled state only restores under the code that wrote it"
            )

    def load_system(self, config: Optional[SystemConfig] = None) -> "System":
        """Unpickle the captured system (workload detached).

        :meth:`check_restorable` and — given the live ``config`` — the
        config digest are checked before anything is unpickled; every
        rejection, a corrupt payload included, is a ``ValueError``.
        """
        self.check_restorable()
        if config is not None:
            live_digest = config_hash(config)
            if live_digest != self.config_digest:
                raise ValueError(
                    "snapshot was captured under a different configuration "
                    f"(snapshot {self.config_digest[:12]}, live {live_digest[:12]}); "
                    "rebuild the system from the snapshot's embedded config"
                )
        try:
            system: "System" = pickle.loads(base64.b64decode(self.system, validate=True))
        except Exception as exc:  # a corrupt payload can fail in any way
            raise ValueError(f"corrupt snapshot payload: {exc}") from exc
        return system

    def summary(self) -> Dict[str, Any]:
        """Small human-oriented description of the snapshot."""
        progress = self.progress
        return {
            "config_digest": self.config_digest[:12],
            "source_digest": self.source_digest[:12],
            "workload": (self.workload or {}).get("name"),
            "processed": progress.get("processed"),
            "consumed_per_core": progress.get("consumed_per_core"),
            "measurement_started": progress.get("measurement_started"),
        }


def capture(
    system: "System",
    processed: int,
    consumed_per_core: List[int],
    measurement_started: bool,
    workload_meta: Optional[Dict[str, Any]] = None,
) -> EngineSnapshot:
    """Capture a snapshot of ``system`` at an engine edge.

    ``processed`` is the run's global processed-record count at the edge,
    ``consumed_per_core`` the per-core record counts consumed *within the
    current run* (the engine restarts workload streams per run, so these
    are exactly the fast-forward distances on resume).
    """
    if len(consumed_per_core) != system.config.num_cores:
        raise ValueError(
            f"consumed_per_core has {len(consumed_per_core)} entries for "
            f"{system.config.num_cores} cores"
        )
    meta = workload_meta
    if meta is None:
        workload = system.workload
        meta = {
            "name": workload.name,
            "num_cores": workload.num_cores,
            "seed": workload.seed,
            "page_size": workload.page_size,
        }
    return EngineSnapshot(
        config=system.config.to_dict(),
        config_digest=config_hash(system.config),
        source_digest=source_digest(),
        workload=meta,
        progress={
            "processed": int(processed),
            "consumed_per_core": [int(count) for count in consumed_per_core],
            "measurement_started": bool(measurement_started),
        },
        system=base64.b64encode(pickle.dumps(system, pickle.HIGHEST_PROTOCOL)).decode("ascii"),
    )


def capture_cursor(
    cursor: "EngineCursor", workload_meta: Optional[Dict[str, Any]] = None
) -> EngineSnapshot:
    """Capture a snapshot from a controller edge's :class:`EngineCursor`."""
    return capture(
        cursor.system,
        processed=cursor.processed,
        consumed_per_core=cursor.consumed_per_core,
        measurement_started=cursor.measurement_started,
        workload_meta=workload_meta,
    )


#: Hoisted bound methods are wiring, not state: :func:`state_view` omits them.
_METHODS = (types.MethodType, types.BuiltinMethodType)


def state_view(obj: Any) -> Any:
    """Read-only JSON view of an object graph, for reading and diffing snapshots.

    Primitives are themselves, an ``Enum`` its value; dicts become ordered
    ``[key, value]`` lists, lists and tuples element lists, sets sorted
    lists, a numpy generator its ``bit_generator.state``; an object reached
    again (shared or back reference) is ``{"@ref": <first path>}``; any
    other object is ``{"@class": <name>, <field>: <view>, ...}`` over its
    ``__dict__`` and ``__slots__``, bound methods left out.
    """
    first_seen: Dict[int, str] = {}

    def view(value: Any, path: str) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, Enum):
            return value.value
        if isinstance(value, tuple):
            return [view(item, f"{path}[{index}]") for index, item in enumerate(value)]
        if id(value) in first_seen:
            return {"@ref": first_seen[id(value)]}
        first_seen[id(value)] = path
        if isinstance(value, np.random.Generator):
            return value.bit_generator.state
        if isinstance(value, dict):
            return [[view(key, f"{path}<key>"), view(item, f"{path}[{key!r}]")]
                    for key, item in value.items()]
        if isinstance(value, list):
            return [view(item, f"{path}[{index}]") for index, item in enumerate(value)]
        if isinstance(value, (set, frozenset)):
            items = [view(item, f"{path}{{}}") for item in value]
            try:
                return sorted(items)
            except TypeError:
                return sorted(items, key=repr)
        fields: Dict[str, Any] = dict(getattr(value, "__dict__", {}))
        for cls in type(value).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(value, name):
                    fields.setdefault(name, getattr(value, name))
        out: Dict[str, Any] = {"@class": type(value).__name__}
        for name, field in fields.items():
            if not isinstance(field, _METHODS):
                out[name] = view(field, f"{path}.{name}")
        return out

    return view(obj, "$")
