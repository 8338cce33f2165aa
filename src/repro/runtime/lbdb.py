"""The load-balancing database — measured loads and communication.

Mirrors the Charm++ LB framework's central data structure: per-object wall
loads and a pairwise communication matrix accumulated over a measurement
window, plus the current object → processor placement. Databases serialize
to JSON (the ``+LBDump`` analog) so a load scenario captured once can be
replayed under every strategy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.exceptions import TaskGraphError
from repro.taskgraph.graph import TaskGraph

__all__ = ["LBDatabase"]

_FORMAT = "repro-lbdump-v1"


class LBDatabase:
    """Measured per-object loads + pairwise communication volumes."""

    def __init__(self, num_objects: int):
        if num_objects < 1:
            raise TaskGraphError(f"need at least one object, got {num_objects}")
        self._n = int(num_objects)
        self._loads = np.zeros(self._n, dtype=np.float64)
        self._comm: dict[tuple[int, int], float] = {}
        self._placement = np.zeros(self._n, dtype=np.int64)
        self._steps = 0

    def _check(self, obj: int) -> int:
        obj = int(obj)
        if not 0 <= obj < self._n:
            raise TaskGraphError(f"object {obj} out of range [0, {self._n})")
        return obj

    def record_comm(self, src: int, dst: int, num_bytes: float) -> None:
        """Accumulate measured communication between two objects."""
        src, dst = self._check(src), self._check(dst)
        if src == dst:
            return  # local communication is free; not tracked
        if num_bytes < 0:
            raise TaskGraphError(f"bytes must be non-negative, got {num_bytes}")
        key = (src, dst) if src < dst else (dst, src)
        self._comm[key] = self._comm.get(key, 0.0) + float(num_bytes)

    def set_placement(self, placement) -> None:
        """Record the current object → processor placement."""
        arr = np.asarray(placement, dtype=np.int64)
        if arr.shape != (self._n,):
            raise TaskGraphError(f"placement must have shape ({self._n},)")
        self._placement = arr.copy()

    # ----------------------------------------------------------- conversion
    def to_taskgraph(self) -> TaskGraph:
        """Snapshot the database as an immutable :class:`TaskGraph`.

        Objects that recorded zero load still appear (weight 0), matching
        the Charm++ model where every migratable object is a vertex.
        """
        edges = [(a, b, w) for (a, b), w in sorted(self._comm.items())]
        return TaskGraph(self._n, edges, self._loads)

    @classmethod
    def from_taskgraph(cls, graph: TaskGraph, placement=None) -> "LBDatabase":
        """Build a database from an existing task graph (for synthetic runs)."""
        db = cls(graph.num_tasks)
        db._loads = graph.vertex_weights.copy()
        db._comm = {(a, b): w for a, b, w in graph.edges()}
        db._steps = 1
        if placement is not None:
            db.set_placement(placement)
        return db

    # ------------------------------------------------------------ dump files
    def dump(self, path: str | Path) -> None:
        """Write the database to a JSON dump file (the ``+LBDump`` analog)."""
        payload = {
            "format": _FORMAT,
            "num_objects": self._n,
            "steps": self._steps,
            "loads": self._loads.tolist(),
            "placement": self._placement.tolist(),
            "comm": [[a, b, w] for (a, b), w in sorted(self._comm.items())],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "LBDatabase":
        """Read a dump written by :meth:`dump` (the ``+LBSim`` input).

        A file that is not a well-formed dump raises
        :class:`~repro.exceptions.TaskGraphError`, as a malformed task-graph
        file does.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TaskGraphError(f"invalid LB dump: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise TaskGraphError(f"not a {_FORMAT} dump file")
        try:
            db = cls(int(payload["num_objects"]))
            db._steps = int(payload["steps"])
            db._loads = np.asarray(payload["loads"], dtype=np.float64)
            db.set_placement(payload["placement"])
            for a, b, w in payload["comm"]:
                db.record_comm(int(a), int(b), float(w))
        except (KeyError, TypeError, ValueError) as exc:
            raise TaskGraphError(f"malformed LB dump: {exc}") from exc
        return db
