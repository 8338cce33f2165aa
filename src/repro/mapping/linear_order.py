"""Linear-ordering mapper — the Taura & Chien comparison class.

The paper's related work cites Taura & Chien's scheme: "tasks are linearly
ordered with more communicating tasks placed closer, and the tasks are
mapped in this order". This mapper reproduces that family:

* the **task order** is a greedy linear arrangement — start from the most
  communicating task, repeatedly append the unplaced task with the largest
  communication volume to the already-ordered prefix (a first-maximum scan
  over one key array, as in TopoCentLB, so ties go to the lowest id);
* the **processor order** is a locality-preserving walk — a boustrophedon
  ("snake") sweep through grid coordinates for meshes/tori (consecutive
  processors are always one hop apart), and a BFS order from node 0 for
  anything else.

Simple, fast, and a genuinely decent baseline on stencil-like patterns.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import Mapper, Mapping
from repro.mapping.topocentlb import seed_keys
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.topology.grid import GridTopology

__all__ = ["LinearOrderingMapper", "snake_order"]


def snake_order(topology: GridTopology) -> np.ndarray:
    """Boustrophedon processor order: consecutive entries are adjacent.

    Sweeps the last axis back and forth, reversing direction whenever any
    higher axis increments — the n-dimensional generalization of the
    serpentine raster.
    """
    shape = topology.shape
    coords = topology.coords_array().copy()
    # Sort key: for each axis k, flip the coordinate whenever the parity of
    # the prefix (axes < k) is odd.
    key = coords.astype(np.int64).copy()
    for axis in range(1, len(shape)):
        prefix_parity = key[:, :axis].sum(axis=1) % 2
        flip = prefix_parity == 1
        key[flip, axis] = shape[axis] - 1 - key[flip, axis]
    order = np.lexsort(tuple(key[:, axis] for axis in reversed(range(len(shape)))))
    return order.astype(np.int64)


class LinearOrderingMapper(Mapper):
    """Greedy linear arrangement of tasks onto a snake walk of processors."""

    strategy_name = "LinearOrderLB"

    def map(self, graph: TaskGraph, topology: Topology) -> Mapping:
        n = self._check_sizes(graph, topology)
        task_order = self._task_order(graph)
        proc_order = self._proc_order(topology)
        assignment = np.empty(n, dtype=np.int64)
        assignment[task_order] = proc_order
        return Mapping(graph, topology, assignment)

    # ------------------------------------------------------------ task order
    @staticmethod
    def _task_order(graph: TaskGraph) -> np.ndarray:
        n = graph.num_tasks
        indptr, indices, weights = graph.csr_arrays()
        keys = seed_keys(graph)  # volume to the ordered prefix
        order = np.empty(n, dtype=np.int64)
        placed = np.zeros(n, dtype=bool)
        for i in range(n):
            t = int(np.argmax(keys))
            order[i] = t
            placed[t] = True
            keys[t] = -np.inf
            lo, hi = indptr[t], indptr[t + 1]
            nbrs = indices[lo:hi]
            out = ~placed[nbrs]
            keys[nbrs[out]] += weights[lo:hi][out]
        return order

    # ------------------------------------------------------------ proc order
    @staticmethod
    def _proc_order(topology: Topology) -> np.ndarray:
        if isinstance(topology, GridTopology):
            return snake_order(topology)
        # Generic machines: BFS order from node 0 (locality-ish).
        from collections import deque

        seen = np.zeros(topology.num_nodes, dtype=bool)
        order: list[int] = []
        for start in range(topology.num_nodes):
            if seen[start]:
                continue
            queue: deque[int] = deque([start])
            seen[start] = True
            while queue:
                v = queue.popleft()
                order.append(v)
                for nbr in topology.neighbors(v):
                    if not seen[nbr]:
                        seen[nbr] = True
                        queue.append(nbr)
        return np.asarray(order, dtype=np.int64)
