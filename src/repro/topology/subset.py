"""Metric view of a subset of a machine (an allocation / block).

Real schedulers rarely hand an application the whole machine; a job gets an
allocation — some subset of processors — and mapping happens *within* it,
with distances still measured through the full network. ``SubTopology``
presents exactly that: nodes ``0..k-1`` aliasing a chosen subset of a parent
topology, with the parent's distances. It also powers the hierarchical
mapper (:class:`~repro.mapping.hybrid.HybridTopoLB`), which maps groups onto
machine blocks and then tasks within each block.

Like :class:`~repro.topology.FatTree`, this is a *metric-only* topology:
routes may leave the subset, so :meth:`route` raises and the network
simulator must be run on the parent machine.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology

__all__ = ["SubTopology"]


class SubTopology(Topology):
    """A subset of a parent topology's processors, under the parent metric."""

    def __init__(self, parent: Topology, nodes: Sequence[int]):
        ids = [int(v) for v in nodes]
        if len(ids) == 0:
            raise TopologyError("subset must contain at least one processor")
        if len(set(ids)) != len(ids):
            raise TopologyError("subset contains duplicate processors")
        for v in ids:
            if not 0 <= v < parent.num_nodes:
                raise TopologyError(f"processor {v} not in parent {parent.name}")
        super().__init__(len(ids))
        self._parent = parent
        self._nodes = np.asarray(ids, dtype=np.int64)
        self._local = {v: i for i, v in enumerate(ids)}

    @property
    def parent(self) -> Topology:
        """The full machine this allocation belongs to."""
        return self._parent

    @property
    def parent_nodes(self) -> np.ndarray:
        """Parent ids of the subset, indexed by local node id (copied)."""
        return self._nodes.copy()

    def to_parent(self, node: int) -> int:
        """Local node id -> parent processor id."""
        return int(self._nodes[self._check_node(node)])

    def from_parent(self, parent_node: int) -> int:
        """Parent processor id -> local node id (TopologyError if outside).

        Raises :class:`~repro.exceptions.TopologyError` like every other
        accessor here (``to_parent``/``distance_row``/``neighbors`` go
        through ``_check_node``) — callers catch one exception type, not a
        bare ``KeyError`` from the internal lookup table.
        """
        parent_node = int(parent_node)
        local = self._local.get(parent_node)
        if local is None:
            if not 0 <= parent_node < self._parent.num_nodes:
                raise TopologyError(
                    f"node {parent_node} out of range "
                    f"[0, {self._parent.num_nodes}) of parent {self._parent.name}"
                )
            raise TopologyError(
                f"parent processor {parent_node} is not part of {self.name}"
            )
        return local

    @property
    def name(self) -> str:
        return f"subset({self._num_nodes} of {self._parent.name})"

    @property
    def distance_dtype(self) -> np.dtype:
        return self._parent.distance_dtype

    def distance_row(self, node: int) -> np.ndarray:
        node = self._check_node(node)
        parent_row = self._parent.distance_row(int(self._nodes[node]))
        return parent_row[self._nodes]

    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return self._parent.pair_distances(self._nodes[pu], self._nodes[pv])

    def neighbors(self, node: int) -> list[int]:
        """Subset members at parent-distance 1 (may be empty for sparse subsets)."""
        node = self._check_node(node)
        out = []
        for nbr in self._parent.neighbors(int(self._nodes[node])):
            local = self._local.get(nbr)
            if local is not None:
                out.append(local)
        return out

    def route(self, src: int, dst: int) -> list[int]:
        raise TopologyError(
            "SubTopology is metric-only: routes run through the parent "
            "machine and may leave the subset; simulate on the parent"
        )
