"""MappingContext — shared per-(graph, topology) state for mappers and metrics.

Every mapper used to re-derive the same inputs on entry: CSR edge arrays from
the task graph, the topology distance matrix (per dtype) and the average
distance vector behind the estimation functions. A :class:`MappingContext`
computes each of these once per (graph, topology) pair and hands out the
*same* arrays the underlying caches would have produced, so threading a
context through a mapper is bit-for-bit equivalent to the mapper fetching
its own state.

The context is deliberately a thin veneer over the existing caches
(``TaskGraph`` builds its CSR arrays once; ``repro.topology.cache`` shares
distance tables across same-shaped machines). What it adds:

* one object to pass around instead of four lookups per mapper;
* per-assignment edge distances and hop-bytes, through the one gather and
  the one ordered sum of :mod:`repro.mapping.metrics`.

Use :func:`context_for` to get the process-wide shared instance for a
(graph, topology) pair; construct :class:`MappingContext` directly only for
throwaway state.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["MappingContext", "context_for"]


class MappingContext:
    """Shared state for mapping one task graph onto one topology.

    All accessors are lazy and cached; arrays returned are the read-only
    shared instances from the graph/topology caches — never copies — so a
    mapper reading through the context sees exactly the arrays it would have
    derived itself.
    """

    def __init__(self, graph: TaskGraph, topology: Topology):
        self._graph = graph
        self._topology = topology

    # ------------------------------------------------------------ identities
    @property
    def graph(self) -> TaskGraph:
        return self._graph

    @property
    def topology(self) -> Topology:
        return self._topology

    # ---------------------------------------------------------- graph tables
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, weights)`` CSR adjacency of the task graph."""
        return self._graph.csr_arrays()

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, w)`` dedup'd undirected edge list of the task graph."""
        return self._graph.edge_arrays()

    # ------------------------------------------------------- topology tables
    def distance_matrix(self, dtype: np.dtype | type | None = None) -> np.ndarray:
        """The topology's hop-distance matrix in ``dtype`` (shared cache),
        by default in the machine's own dtype: int32 where distances are
        integers, float64 where they may be fractional."""
        return self._topology.distance_matrix(dtype)

    def kernel_distances(self):
        """The machine's distances as the compiled mapper kernels read
        them: its per-axis description on a mesh, a torus or a grouped
        level of one (:meth:`~repro.topology.base.Topology.axis_distances`),
        which builds no ``p x p`` table; else its table in its own dtype."""
        axes = self._topology.axis_distances()
        if axes is not None:
            return axes
        return np.ascontiguousarray(self._topology.distance_matrix())

    def average_distance_vector(self) -> np.ndarray:
        """Mean distance from each processor to every processor (shared,
        read-only; cached on the topology)."""
        from repro.mapping.estimation import average_distance_vector

        return average_distance_vector(self._topology)

    # ------------------------------------------------------- derived metrics
    def edge_distances(self, assignment: Sequence[int]) -> np.ndarray:
        """Hop distance of each task-graph edge under ``assignment``
        (:func:`repro.mapping.metrics.edge_distances`)."""
        from repro.mapping.metrics import edge_distances

        return edge_distances(self._graph, self._topology, assignment)[1]

    def hop_bytes(self, assignment: Sequence[int]) -> float:
        """Total hop-bytes of ``assignment`` (the paper's Section 3 metric)."""
        from repro.mapping.metrics import hop_bytes

        return hop_bytes(self._graph, self._topology, assignment)


#: Process-wide (graph, topology) -> MappingContext cache. Strong references
#: with a small LRU cap: entries pin their graph/topology (so ids stay valid
#: for the identity check) and the cap bounds the pinning to a handful of
#: recently used pairs — the working set of any CLI run or experiment sweep.
_CACHE_CAP = 16
_CACHE: OrderedDict[tuple[int, int], MappingContext] = OrderedDict()


def context_for(graph: TaskGraph, topology: Topology) -> MappingContext:
    """The shared :class:`MappingContext` for ``(graph, topology)``.

    Repeated calls with the same objects return the same context, so every
    layer (engine, pipeline, metrics, runtime replay) accumulates derived
    state in one place instead of re-deriving it.
    """
    key = (id(graph), id(topology))
    ctx = _CACHE.get(key)
    if ctx is not None and ctx.graph is graph and ctx.topology is topology:
        _CACHE.move_to_end(key)
        return ctx
    ctx = MappingContext(graph, topology)
    _CACHE[key] = ctx
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_CAP:
        _CACHE.popitem(last=False)
    return ctx
