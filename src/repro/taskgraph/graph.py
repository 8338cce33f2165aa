"""The :class:`TaskGraph` data structure.

A task graph is immutable once built. Adjacency is stored in CSR form (the
layout the mapping inner loops iterate over — contiguous neighbor/weight
slices per vertex, per the vectorization guidance for numeric Python) plus a
deduplicated undirected edge list for whole-graph metrics.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import TaskGraphError

__all__ = ["TaskGraph"]


class TaskGraph:
    """Weighted undirected task graph.

    Parameters
    ----------
    num_tasks:
        Number of compute objects ``n``.
    edges:
        Iterable of ``(a, b, bytes)`` triples. Duplicate ``(a, b)`` pairs (in
        either orientation) are merged by summing their byte counts —
        matching how a load-balancing database accumulates per-pair traffic.
    vertex_weights:
        Optional per-task computation load; defaults to 1.0 for every task.
    """

    def __init__(
        self,
        num_tasks: int,
        edges: Iterable[tuple[int, int, float]] = (),
        vertex_weights: Sequence[float] | None = None,
    ):
        cols = [(int(a), int(b), float(w)) for a, b, w in edges]
        u, v, w = zip(*cols) if cols else ((), (), ())
        self._build(num_tasks, u, v, w, vertex_weights)

    @classmethod
    def from_arrays(
        cls,
        num_tasks: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        vertex_weights: Sequence[float] | None = None,
    ) -> "TaskGraph":
        """Vectorized constructor from parallel edge arrays.

        Produces exactly the graph ``TaskGraph(num_tasks, zip(u, v, w),
        vertex_weights)`` would — ``__init__`` builds through the same path.
        Duplicate pairs (in either orientation) merge by summing their
        weights in ascending order, so the merged weight depends only on
        which duplicates there are, never on their input order. The stored
        edge list is sorted by canonical ``(min, max)`` key. A lexsort +
        reduceat does the merge, which is what makes repeated graph
        contraction affordable at 10^5+ edges.
        """
        self = object.__new__(cls)
        self._build(num_tasks, u, v, w, vertex_weights)
        return self

    def _build(self, num_tasks, u, v, w, vertex_weights) -> None:
        if num_tasks < 1:
            raise TaskGraphError(f"task graph needs at least one task, got {num_tasks}")
        self._n = int(num_tasks)

        if vertex_weights is None:
            self._vertex_weights = np.ones(self._n, dtype=np.float64)
        else:
            self._vertex_weights = np.asarray(vertex_weights, dtype=np.float64).copy()
            if self._vertex_weights.shape != (self._n,):
                raise TaskGraphError(
                    f"vertex_weights must have shape ({self._n},), "
                    f"got {self._vertex_weights.shape}"
                )
            if not np.isfinite(self._vertex_weights).all():
                raise TaskGraphError("vertex weights must be finite")
            if (self._vertex_weights < 0).any():
                raise TaskGraphError("vertex weights must be non-negative")
        self._vertex_weights.flags.writeable = False

        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (u.shape == v.shape == w.shape and u.ndim == 1):
            raise TaskGraphError(
                f"edge arrays must be 1-D and equal-length, got shapes "
                f"{u.shape}/{v.shape}/{w.shape}"
            )
        if len(u) == 0:
            self._edge_u = np.empty(0, dtype=np.int64)
            self._edge_v = np.empty(0, dtype=np.int64)
            self._edge_w = np.empty(0, dtype=np.float64)
            self._finish_edges()
            return

        bad = (u < 0) | (u >= self._n) | (v < 0) | (v >= self._n)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise TaskGraphError(
                f"edge ({u[i]},{v[i]}) references unknown task"
            )
        loops = u == v
        if loops.any():
            i = int(np.flatnonzero(loops)[0])
            raise TaskGraphError(
                f"self-edge at task {u[i]} (intra-task bytes are free)"
            )
        bad = ~np.isfinite(w) | (w < 0)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise TaskGraphError(
                f"edge ({u[i]},{v[i]}) has weight {w[i]}; edge bytes must be "
                "finite and non-negative"
            )

        a = np.minimum(u, v)
        b = np.maximum(u, v)
        # Duplicates of one key sort by weight, so reduceat sums them in the
        # same order whatever order they arrived in.
        order = np.lexsort((w, b, a))
        a, b, wo = a[order], b[order], w[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(first)
        self._edge_u = a[starts]
        self._edge_v = b[starts]
        self._edge_w = np.add.reduceat(wo, starts)
        self._finish_edges()

    def _finish_edges(self) -> None:
        """Freeze the canonical edge arrays and derive the CSR adjacency."""
        for arr in (self._edge_u, self._edge_v, self._edge_w):
            arr.flags.writeable = False

        # CSR adjacency (each undirected edge appears in both rows), columns
        # ascending within a row. The canonical edges are unique, so no two
        # entries share a (row, column) and nothing needs summing.
        rows = np.concatenate([self._edge_u, self._edge_v])
        cols = np.concatenate([self._edge_v, self._edge_u])
        data = np.concatenate([self._edge_w, self._edge_w])
        order = np.lexsort((cols, rows))
        self._indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self._n), out=self._indptr[1:])
        self._indices = cols[order]
        self._weights = data[order]
        for arr in (self._indptr, self._indices, self._weights):
            arr.flags.writeable = False

    # ---------------------------------------------------------------- digest
    def content_digest(self) -> str:
        """Stable sha256 hex digest of the graph's full content.

        Covers the task count, the canonical deduplicated edge arrays
        (sorted ``(min, max)`` keys with summed float64 weights — exactly
        what the CSR adjacency derives from) and the vertex weights. Two
        graphs with equal structure hash equally regardless of how they were
        built (``__init__`` vs :meth:`from_arrays`, edge input order,
        duplicate merging), and the digest is identical across processes and
        platforms because every hashed array has a fixed dtype
        (int64/float64) and little-endian byte order. This is the graph half of the content-addressed mapping
        cache key (see :mod:`repro.service.cache`).
        """
        import hashlib

        h = hashlib.sha256()
        h.update(b"repro-taskgraph-digest-v1\x00")

        def _arr(tag: bytes, arr: np.ndarray) -> None:
            data = np.ascontiguousarray(arr)
            if data.dtype.byteorder == ">":  # big-endian hosts hash equally
                data = data.astype(data.dtype.newbyteorder("<"))
            h.update(tag)
            h.update(data.size.to_bytes(8, "little"))
            h.update(data.tobytes())

        h.update(self._n.to_bytes(8, "little"))
        _arr(b"eu", self._edge_u)
        _arr(b"ev", self._edge_v)
        _arr(b"ew", self._edge_w)
        _arr(b"vw", self._vertex_weights)
        return h.hexdigest()

    # ----------------------------------------------------------------- sizes
    @property
    def num_tasks(self) -> int:
        """Number of compute objects ``n = |Vt|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected communication edges ``|Et|``."""
        return len(self._edge_w)

    def __len__(self) -> int:
        return self._n

    # --------------------------------------------------------------- weights
    @property
    def vertex_weights(self) -> np.ndarray:
        """Per-task computation load (read-only view)."""
        return self._vertex_weights

    @property
    def total_vertex_weight(self) -> float:
        """Sum of all computation loads."""
        return float(self._vertex_weights.sum())

    @property
    def total_bytes(self) -> float:
        """Total communication volume over all undirected edges."""
        return float(self._edge_w.sum())

    # ----------------------------------------------------------------- edges
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deduplicated undirected edges as ``(u, v, bytes)`` arrays, u < v."""
        return self._edge_u, self._edge_v, self._edge_w

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Iterate over undirected edges ``(u, v, bytes)`` with ``u < v``."""
        for a, b, w in zip(self._edge_u, self._edge_v, self._edge_w):
            yield int(a), int(b), float(w)

    # ------------------------------------------------------------- adjacency
    def _check_task(self, task: int) -> int:
        task = int(task)
        if not 0 <= task < self._n:
            raise TaskGraphError(f"task {task} out of range [0, {self._n})")
        return task

    def neighbor_slice(self, task: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, edge bytes) contiguous views for ``task``."""
        task = self._check_task(task)
        lo, hi = self._indptr[task], self._indptr[task + 1]
        return self._indices[lo:hi], self._weights[lo:hi]

    def neighbors(self, task: int) -> list[int]:
        """Neighbor task ids of ``task``."""
        return [int(x) for x in self.neighbor_slice(task)[0]]

    def degree(self, task: int) -> int:
        """Number of communication partners of ``task``."""
        task = self._check_task(task)
        return int(self._indptr[task + 1] - self._indptr[task])

    def degrees(self) -> np.ndarray:
        """All task degrees as an int array."""
        return np.diff(self._indptr)

    def comm_volume(self, task: int) -> float:
        """Total bytes ``task`` exchanges with all its partners."""
        return float(self.neighbor_slice(task)[1].sum())

    def comm_volumes(self) -> np.ndarray:
        """Per-task total communication bytes (vectorized)."""
        return np.add.reduceat(
            np.append(self._weights, 0.0), self._indptr[:-1]
        ) * (np.diff(self._indptr) > 0)

    def adjacency_csr(self):
        """Symmetric ``scipy.sparse.csr_matrix`` of byte weights (copy; safe
        to mutate)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self._weights.copy(), self._indices.copy(), self._indptr.copy()),
            shape=(self._n, self._n),
        )

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices, weights)`` of the symmetric adjacency."""
        return self._indptr, self._indices, self._weights

    def induced(self, tasks: Sequence[int]) -> "TaskGraph":
        """Induced subgraph on ``tasks``, relabeled to local ids ``0..k-1``.

        Edges with exactly one endpoint inside are dropped (their bytes
        leave the subproblem — callers tracking cross-traffic should account
        for it separately). Duplicate task ids are rejected.
        """
        ids = np.asarray([self._check_task(t) for t in tasks], dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            raise TaskGraphError("induced() requires distinct task ids")
        local = np.full(self._n, -1, dtype=np.int64)
        local[ids] = np.arange(len(ids))
        lu, lv = local[self._edge_u], local[self._edge_v]
        inside = (lu >= 0) & (lv >= 0)
        return TaskGraph.from_arrays(len(ids), lu[inside], lv[inside],
                                     self._edge_w[inside],
                                     self._vertex_weights[ids])

    def relabel(self, permutation: Sequence[int]) -> "TaskGraph":
        """Return a copy with task ``t`` renamed to ``permutation[t]``."""
        perm = np.asarray(permutation, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self._n)):
            raise TaskGraphError("relabel requires a permutation of 0..n-1")
        new_vw = np.empty_like(self._vertex_weights)
        new_vw[perm] = self._vertex_weights
        return TaskGraph.from_arrays(self._n, perm[self._edge_u],
                                     perm[self._edge_v], self._edge_w, new_vw)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TaskGraph n={self._n} edges={self.num_edges} bytes={self.total_bytes:g}>"
