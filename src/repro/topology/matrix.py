"""Topology defined by an explicit distance matrix (metric-only).

Some machines are easiest to describe by their distances alone: quotient
machines (one node per block of processors, as the hierarchical mapper
builds), measured latency matrices of real clusters, or synthetic metrics
for testing. ``MatrixTopology`` wraps any symmetric, zero-diagonal,
non-negative matrix; like :class:`~repro.topology.FatTree` it is metric-only
(:meth:`route` raises — there are no links to route over).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology

__all__ = ["MatrixTopology"]


class MatrixTopology(Topology):
    """A processor metric given directly as a matrix."""

    distance_dtype = np.dtype(np.float64)

    def __init__(self, distances: np.ndarray):
        mat = np.asarray(distances, dtype=np.float64).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise TopologyError(f"distance matrix must be square, got {mat.shape}")
        if not np.allclose(mat, mat.T):
            raise TopologyError("distance matrix must be symmetric")
        if not np.allclose(np.diag(mat), 0.0):
            raise TopologyError("distance matrix diagonal must be zero")
        if (mat < 0).any():
            raise TopologyError("distances must be non-negative")
        off_diag = mat[~np.eye(len(mat), dtype=bool)]
        if len(off_diag) and (off_diag <= 0).any():
            raise TopologyError("distinct processors must have positive distance")
        super().__init__(mat.shape[0])
        mat.flags.writeable = False
        self._mat = mat

    @property
    def name(self) -> str:
        return f"matrix(p={self._num_nodes})"

    def distance_row(self, node: int) -> np.ndarray:
        return self._mat[self._check_node(node)]

    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return self._mat[pu, pv]

    def distance_matrix(self, dtype=None) -> np.ndarray:
        # Distances may be fractional (e.g. block-mean distances); serving
        # the stored float matrix avoids silent truncation to the default
        # integer dtype of the base implementation. Other dtypes are cast
        # once and kept in the per-instance cache (never the shared cache:
        # cache_key() is None — the name does not identify the contents).
        dt = np.dtype(self.distance_dtype if dtype is None else dtype)
        if dt == np.float64:
            return self._mat
        mat = self._distance_matrices.get(dt)
        if mat is None:
            mat = self._mat.astype(dt)
            mat.flags.writeable = False
            self._distance_matrices[dt] = mat
        return mat

    def distance(self, a: int, b: int) -> float:
        return float(self._mat[self._check_node(a), self._check_node(b)])

    def neighbors(self, node: int) -> list[int]:
        """Processors at the minimum positive distance from ``node``."""
        node = self._check_node(node)
        row = self._mat[node]
        positive = row[row > 0]
        if len(positive) == 0:
            return []
        return [int(v) for v in np.flatnonzero(np.isclose(row, positive.min()))]

    def route(self, src: int, dst: int) -> list[int]:
        raise TopologyError(
            "MatrixTopology is metric-only: no links exist to route over"
        )
