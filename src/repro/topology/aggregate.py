"""Processor-group aggregation — coarse machines for the multilevel mapper.

A :class:`GroupedTopology` collapses disjoint processor groups of a parent
machine into single coarse nodes, giving the multilevel mapper a machine
whose size matches its coarsened task graph. Like
:class:`~repro.topology.subset.SubTopology` it is *metric-only*: mappers see
honest inter-group distances, but there are no physical links to route
over, so :meth:`route` raises.

Distances are representative: ``d(A, B) = d_parent(rep_A, rep_B)`` for
one designated member per group. They are exact machine distances, answered
by the root machine's :meth:`~repro.topology.base.Topology.pair_distances`
on representative ids, so they never need a parent-sized dense table (on a
grid root the closed form runs on representative coordinates directly) —
this is what keeps 10^5+-processor tori coarsenable.

:func:`coarsen_machine` builds the standard halving step: grid machines
halve their largest extent (subtorus pairing, so groups stay geometric
blocks), everything else pairs consecutive node ids (a dimension collapse
on hypercubes). A grid machine's levels are C-order product grids on
their virtual shapes, so they describe their distances per axis, as the
grid does (:class:`~repro.topology.grid.AxisDistances`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.grid import AxisDistances, GridTopology

__all__ = ["GroupedTopology", "coarsen_machine"]


class GroupedTopology(Topology):
    """A machine whose nodes are disjoint processor groups of ``parent``.

    Parameters
    ----------
    parent:
        The finer machine (may itself be a :class:`GroupedTopology`; the
        representative chain composes down to the non-grouped root).
    groups:
        ``(parent.num_nodes,)`` int array, ``groups[i]`` = coarse node of
        parent node ``i``. Every id in ``0..k-1`` must occur. Each group's
        representative is its smallest member id.
    shape:
        On a grid root, the level's virtual grid shape
        (:func:`coarsen_machine` passes it): the representatives must then
        form a C-order product grid on it, one root coordinate per virtual
        coordinate on each axis, and the level describes its distances per
        axis (:meth:`axis_distances`). ``None`` for any other grouping.
    """

    def __init__(self, parent: Topology, groups: np.ndarray,
                 shape: tuple[int, ...] | None = None):
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (parent.num_nodes,):
            raise TopologyError(
                f"groups must have shape ({parent.num_nodes},), got {groups.shape}"
            )
        if groups.min() < 0:
            raise TopologyError("group ids must be non-negative")
        k = int(groups.max()) + 1
        counts = np.bincount(groups, minlength=k)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise TopologyError(f"coarse node {missing} has no members")
        super().__init__(k)
        self._parent = parent
        self._groups = groups.copy()
        self._groups.flags.writeable = False

        p = parent.num_nodes
        reps_arr = np.full(k, p, dtype=np.int64)
        np.minimum.at(reps_arr, self._groups, np.arange(p, dtype=np.int64))
        reps_arr.flags.writeable = False
        self._reps = reps_arr

        # Compose representative chains down to the non-grouped root so
        # pair_distances always runs on real machine ids.
        if isinstance(parent, GroupedTopology):
            self._root: Topology = parent._root
            self._root_reps = parent._root_reps[self._reps]
        else:
            self._root = parent
            self._root_reps = self._reps
        self._neighbor_lists: list[list[int]] | None = None
        self._axis_distances: AxisDistances | None = None
        if shape is not None and isinstance(self._root, GridTopology):
            self._axis_distances = self._product_axes(tuple(shape))

    def _product_axes(self, shape: tuple[int, ...]) -> AxisDistances:
        """The root's axis tables at the representatives' coordinates,
        ``T_k[rep_k][:, rep_k]``, after checking that node ``c`` (C order
        on ``shape``) has root coordinate ``rep_k[c_k]`` on every axis."""
        root = self._root
        if len(shape) != root.ndim or int(np.prod(shape)) != self._num_nodes:
            raise TopologyError(
                f"virtual shape {shape} does not fit {self._num_nodes} "
                f"groups of {root.name}"
            )
        coords = root.coords_array()[self._root_reps].T.reshape(-1, *shape)
        tables = []
        for k, (grid, table) in enumerate(
                zip(coords, root.axis_distances().tables)):
            line = grid[(0,) * k + (slice(None),) + (0,) * (len(shape) - k - 1)]
            dims = [1] * len(shape)
            dims[k] = shape[k]
            if not np.array_equal(grid, np.broadcast_to(line.reshape(dims),
                                                        shape)):
                raise TopologyError(
                    f"the groups of {root.name} are no product grid on the "
                    f"virtual shape {shape} (axis {k})"
                )
            sub = np.ascontiguousarray(table[np.ix_(line, line)])
            sub.flags.writeable = False
            tables.append(sub)
        return AxisDistances(shape, tables)

    # ------------------------------------------------------------- structure
    @property
    def parent(self) -> Topology:
        """The finer machine this one aggregates."""
        return self._parent

    @property
    def groups(self) -> np.ndarray:
        """Read-only parent-node → coarse-node map."""
        return self._groups

    @property
    def representatives(self) -> np.ndarray:
        """Read-only representative parent node per coarse node."""
        return self._reps

    def member_lists(self) -> list[np.ndarray]:
        """Member parent-node ids per coarse node, each ascending."""
        order = np.argsort(self._groups, kind="stable")
        counts = np.bincount(self._groups, minlength=self._num_nodes)
        return np.split(order, np.cumsum(counts)[:-1])

    def cache_key(self) -> tuple | None:
        parent_key = self._parent.cache_key()
        if parent_key is None:
            return None
        return (
            "GroupedTopology",
            parent_key,
            self._groups.tobytes(),
            self._reps.tobytes(),
        )

    # -------------------------------------------------------------- distances
    @property
    def distance_dtype(self) -> np.dtype:
        return self._root.distance_dtype

    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return self._root.pair_distances(self._root_reps[pu], self._root_reps[pv])

    def distance_row(self, node: int) -> np.ndarray:
        return self._pair_row(node)

    def axis_distances(self) -> AxisDistances | None:
        return self._axis_distances

    def _build_distance_matrix(self, dtype: np.dtype) -> np.ndarray:
        if self._axis_distances is not None:
            return self._axis_distances.matrix(dtype)
        return self._pair_matrix(dtype)

    # ------------------------------------------------------------ connectivity
    def neighbors(self, node: int) -> list[int]:
        node = self._check_node(node)
        if self._neighbor_lists is None:
            sets: list[set[int]] = [set() for _ in range(self._num_nodes)]
            g = self._groups
            p = len(g)
            for a, b in self._parent.links():
                if a >= p or b >= p:
                    # Switch-level links of an indirect parent (fat-tree,
                    # dragonfly) say nothing about group-group adjacency.
                    continue
                ga, gb = int(g[a]), int(g[b])
                if ga != gb:
                    sets[ga].add(gb)
                    sets[gb].add(ga)
            self._neighbor_lists = [sorted(s) for s in sets]
        return list(self._neighbor_lists[node])

    # ---------------------------------------------------------------- routing
    def route(self, src: int, dst: int) -> list[int]:
        raise TopologyError(
            "grouped (coarse) machines are metric-only — they have no "
            "link_graph() to route over; route on the parent machine "
            "(its link_graph() carries the physical links) instead"
        )

    @property
    def name(self) -> str:
        return f"grouped({self._parent.name}/{self._num_nodes})"


def coarsen_machine(
    topology: Topology,
    shape: tuple[int, ...] | None = None,
) -> tuple[GroupedTopology, np.ndarray, tuple[int, ...] | None]:
    """One machine-coarsening step: pair processors into coarse groups.

    Grid machines (and coarse machines derived from one — pass the virtual
    ``shape`` returned by the previous step) halve their largest extent, so
    groups are geometric neighbor pairs and subtori coarsen to subtori.
    Anything else pairs consecutive node ids. Returns ``(coarse topology,
    fine→coarse groups, coarse virtual shape or None)``.
    """
    p = topology.num_nodes
    if p < 2:
        raise TopologyError("cannot coarsen a single-node machine")
    if shape is None and isinstance(topology, GridTopology):
        shape = topology.shape
    new_shape: tuple[int, ...] | None = None
    if shape is not None:
        shape = tuple(int(s) for s in shape)
        volume = 1
        for s in shape:
            volume *= s
        if volume != p:
            raise TopologyError(
                f"virtual shape {shape} does not cover {p} processors"
            )
        axis = int(np.argmax(shape))
        coords = np.stack(np.unravel_index(np.arange(p), shape), axis=1)
        coords[:, axis] //= 2
        halved = list(shape)
        halved[axis] = (shape[axis] + 1) // 2
        groups = np.ravel_multi_index(
            tuple(coords.T), tuple(halved)
        ).astype(np.int64)
        new_shape = tuple(halved)
    else:
        groups = np.arange(p, dtype=np.int64) // 2

    return GroupedTopology(topology, groups, new_shape), groups, new_shape
