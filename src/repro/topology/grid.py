"""Shared machinery for k-ary n-dimensional grid topologies (mesh & torus).

Node ids are the C-order raveling of n-dimensional coordinates, matching
``numpy.ravel_multi_index``. Distances are computed in closed form from the
coordinate arrays — vectorized per the hop-distance formulas:

* mesh:  ``d = sum_k |a_k - b_k|``
* torus: ``d = sum_k min(|a_k - b_k|, s_k - |a_k - b_k|)``

:class:`AxisDistances` is the same sum as data: one small ``s_k x s_k``
table per axis, which is what the compiled mapper kernels read on a grid
machine in place of a ``p x p`` table.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.utils.validation import check_shape_volume

__all__ = ["AxisDistances", "GridTopology"]


class AxisDistances:
    """Hop distances on a C-order product grid of ``shape``:
    ``d(a, b) = sum_k tables[k][a_k, b_k]``, where ``a_k`` is node ``a``'s
    coordinate on axis ``k`` (``numpy.unravel_index`` order).

    ``tables`` holds one read-only ``s_k x s_k`` int32 table per axis;
    ``coords`` is the ``(ndim, p)`` int32 coordinate table, one contiguous
    row per axis. A mesh or torus describes itself this way, and so does a
    grouped level of one (:func:`~repro.topology.aggregate.coarsen_machine`),
    whose axis tables are the root's at its representatives' coordinates.
    """

    __slots__ = ("shape", "tables", "coords")

    def __init__(self, shape: Sequence[int], tables: Sequence[np.ndarray],
                 coords: np.ndarray | None = None):
        self.shape = tuple(int(s) for s in shape)
        self.tables = tuple(tables)
        if coords is None:
            coords = np.stack(np.unravel_index(
                np.arange(int(np.prod(self.shape))), self.shape)
            ).astype(np.int32)
        self.coords = coords

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[1]

    def row_sums(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Exact int64 sums ``sum_{j in nodes} d(i, j)`` for each ``i`` in
        ``nodes`` (default: every node). The sum splits over the axes, so
        each axis adds its table times the count of ``nodes`` at each of
        its coordinates: ``O(|nodes| ndim + sum_k s_k^2)``, no pair loop."""
        coords = self.coords if nodes is None else self.coords[:, nodes]
        total = np.zeros(coords.shape[1], dtype=np.int64)
        for table, column, extent in zip(self.tables, coords, self.shape):
            counts = np.bincount(column, minlength=extent)
            total += (table.astype(np.int64) @ counts)[column]
        return total

    def matrix(self, dtype: np.dtype) -> np.ndarray:
        """The ``p x p`` table in ``dtype``. Broadcast into a shape + shape
        array, entry ``[a_0, .., a_n, b_0, .., b_n]``, each axis table lands
        in place without a ``p x p`` temporary, and C order makes the
        ``(p, p)`` reshape a view."""
        nd, p = len(self.shape), self.num_nodes
        out = np.empty(self.shape * 2, dtype=dtype)
        for k, table in enumerate(self.tables):
            dims = [1] * (2 * nd)
            dims[k] = dims[nd + k] = self.shape[k]
            if k:
                out += table.astype(dtype).reshape(dims)
            else:
                out[...] = table.astype(dtype).reshape(dims)
        return out.reshape(p, p)


@functools.lru_cache(maxsize=64)
def _axis_table(extent: int, wraparound: bool) -> np.ndarray:
    """The read-only ``s x s`` int32 hop table of one axis of extent ``s``:
    ``|a - b|``, or with wrap-around links the ring distance
    ``min(|a - b|, s - |a - b|)``. Shared by every grid with such an axis."""
    line = np.arange(extent)
    table = np.abs(line[:, None] - line[None, :])
    if wraparound:
        table = np.minimum(table, extent - table)
    table = table.astype(np.int32)
    table.flags.writeable = False
    return table


class GridTopology(Topology):
    """Base class for :class:`~repro.topology.Mesh` and :class:`~repro.topology.Torus`."""

    #: Whether each dimension has a wrap-around link (overridden by Torus).
    wraparound: bool = False

    def __init__(self, shape: Sequence[int]):
        volume = check_shape_volume(shape, TopologyError)
        super().__init__(volume)
        self._shape = tuple(int(s) for s in shape)
        # One contiguous coordinate column per axis (C order); _coords is
        # the (p, ndim) view of the same table, _coords[node] = coordinates.
        self._axes = np.stack(
            np.unravel_index(np.arange(volume), self._shape)
        ).astype(np.int32)
        self._coords = self._axes.T
        # C-order strides: moving one step along axis k changes the id by
        # _strides[k].
        self._strides = tuple(
            int(np.prod(self._shape[k + 1:], dtype=np.int64))
            for k in range(len(self._shape))
        )
        self._axis_distances: AxisDistances | None = None

    # ------------------------------------------------------------------ shape
    @property
    def shape(self) -> tuple[int, ...]:
        """Grid extents, e.g. ``(8, 8, 8)``."""
        return self._shape

    @property
    def ndim(self) -> int:
        """Number of grid dimensions."""
        return len(self._shape)

    def coords(self, node: int) -> tuple[int, ...]:
        node = self._check_node(node)
        return tuple(int(c) for c in self._coords[node])

    def index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.ndim:
            raise TopologyError(
                f"{self.name} expects {self.ndim}-D coordinates, got {coords!r}"
            )
        for c, s in zip(coords, self._shape):
            if not 0 <= c < s:
                raise TopologyError(f"coordinate {coords!r} outside shape {self._shape}")
        return int(np.ravel_multi_index(tuple(int(c) for c in coords), self._shape))

    def cache_key(self) -> tuple:
        # Mesh/Torus of a given shape are fully determined by it; the class
        # name separates the two metrics.
        return (type(self).__name__, self._shape)

    def coords_array(self) -> np.ndarray:
        """Read-only ``(p, ndim)`` coordinate table for vectorized callers."""
        view = self._coords.view()
        view.flags.writeable = False
        return view

    # -------------------------------------------------------------- distances
    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        pu, pv = np.asarray(pu), np.asarray(pv)
        dist = np.zeros(len(pu), dtype=np.int32)
        for column, extent in zip(self._axes, self._shape):
            delta = np.abs(column[pu] - column[pv])
            if self.wraparound:
                delta = np.minimum(delta, extent - delta)
            dist += delta
        return dist

    def distance_row(self, node: int) -> np.ndarray:
        return self._pair_row(node)

    def distance(self, a: int, b: int) -> int:
        # Closed form on two coordinate tuples: no row, no table.
        a = self._check_node(a)
        b = self._check_node(b)
        total = 0
        for column, extent in zip(self._axes, self._shape):
            delta = abs(int(column[a]) - int(column[b]))
            total += min(delta, extent - delta) if self.wraparound else delta
        return total

    def axis_distances(self) -> AxisDistances:
        """The per-axis description of this grid (see :func:`_axis_table`)."""
        axes = self._axis_distances
        if axes is None:
            tables = [_axis_table(s, self.wraparound) for s in self._shape]
            axes = self._axis_distances = AxisDistances(
                self._shape, tables, self._axes)
        return axes

    def _build_distance_matrix(self, dtype: np.dtype) -> np.ndarray:
        return self.axis_distances().matrix(dtype)

    def diameter(self) -> int:
        # Closed form: sum over axes of the per-axis maximum displacement.
        if self.wraparound:
            return int(sum(s // 2 for s in self._shape))
        return int(sum(s - 1 for s in self._shape))

    # ------------------------------------------------------------ connectivity
    def _axis_neighbor(self, node: int, axis: int, step: int) -> int | None:
        """Neighbor of ``node`` one hop along ``axis`` (None if off the edge)."""
        coords = list(self._coords[node])
        extent = self._shape[axis]
        nxt = coords[axis] + step
        if self.wraparound:
            # A 1- or 2-extent axis has no distinct wrap neighbor.
            if extent <= 1:
                return None
            nxt %= extent
            if nxt == coords[axis]:
                return None
        elif not 0 <= nxt < extent:
            return None
        coords[axis] = nxt
        return int(np.ravel_multi_index(tuple(coords), self._shape))

    def neighbors(self, node: int) -> list[int]:
        node = self._check_node(node)
        out: list[int] = []
        for axis in range(self.ndim):
            for step in (-1, +1):
                nbr = self._axis_neighbor(node, axis, step)
                if nbr is not None and nbr != node and nbr not in out:
                    out.append(nbr)
        return out

    # ---------------------------------------------------------------- routing
    def route(self, src: int, dst: int) -> list[int]:
        """Dimension-ordered (e-cube) minimal routing.

        Corrects one axis at a time, in axis order — the deterministic
        routing used by BlueGene/L-style tori. On a torus each axis moves in
        the direction of the shorter way around (ties go in the +1
        direction), on a mesh simply toward the destination.
        """
        return self.route_axis_order(src, dst, range(self.ndim))

    def route_axis_order(self, src: int, dst: int, axis_order) -> list[int]:
        """Minimal route correcting axes in the given order.

        Every permutation of axes yields a (different) minimal path; the
        adaptive-routing mode of the network simulator picks among them at
        injection time. The walk is integer arithmetic on the coordinates:
        each axis moves a fixed number of steps in one direction, and a hop
        adds ``±stride`` to the node id (``∓(extent - 1) * stride`` across a
        torus wrap link).
        """
        src = self._check_node(src)
        dst = self._check_node(dst)
        path = [src]
        node = src
        coords = self._coords[src].tolist()
        target = self._coords[dst].tolist()
        for axis in axis_order:
            extent, stride = self._shape[axis], self._strides[axis]
            here, there = coords[axis], target[axis]
            forward = (there - here) % extent
            if self.wraparound and forward > extent - forward:
                steps, step = extent - forward, -1
            elif self.wraparound or there > here:
                steps, step = forward, 1
            else:
                steps, step = here - there, -1
            for _ in range(steps):
                here += step
                if here == extent:
                    here = 0
                    node -= (extent - 1) * stride
                elif here < 0:
                    here = extent - 1
                    node += (extent - 1) * stride
                else:
                    node += step * stride
                path.append(node)
            coords[axis] = here
        return path
