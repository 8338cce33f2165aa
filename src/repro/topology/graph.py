"""Arbitrary topology defined by an explicit link list.

The paper notes the algorithms "work for arbitrary network topologies"; this
class is the escape hatch for irregular machines. Links may carry *transit
costs* (default 1 per hop), covering the heterogeneous machines of Taura &
Chien's related work — a slow WAN-ish link simply costs more, and every
mapper minimizes the weighted distances transparently. Distances come from
BFS (uniform costs) or Dijkstra (weighted) via ``scipy.sparse.csgraph``;
routes are shortest paths with deterministic tie-breaking so the network
simulator sees a stable single path per (src, dst) pair.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology

__all__ = ["ArbitraryTopology"]


class ArbitraryTopology(Topology):
    """Topology built from an undirected edge list over nodes ``0..p-1``.

    Edges are ``(a, b)`` pairs or ``(a, b, cost)`` triples; mixing is
    allowed and duplicate pairs keep their *cheapest* cost.
    """

    def __init__(self, num_nodes: int, edges: Iterable[tuple]):
        super().__init__(num_nodes)
        costs: dict[tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) == 2:
                a, b = edge
                cost = 1.0
            else:
                a, b, cost = edge
            a, b = int(a), int(b)
            cost = float(cost)
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise TopologyError(f"edge ({a},{b}) references unknown node")
            if a == b:
                raise TopologyError(f"self-link at node {a} is not allowed")
            if cost <= 0:
                raise TopologyError(f"link ({a},{b}) must have positive cost, got {cost}")
            key = (min(a, b), max(a, b))
            costs[key] = min(costs.get(key, np.inf), cost)
        self._edges = sorted(costs)
        self._weighted = any(c != 1.0 for c in costs.values())
        if self._weighted:
            self.distance_dtype = np.dtype(np.float64)
        rows = np.array([a for a, _ in self._edges] + [b for _, b in self._edges], dtype=np.int64)
        cols = np.array([b for _, b in self._edges] + [a for a, _ in self._edges], dtype=np.int64)
        data = np.array([costs[e] for e in self._edges] * 2, dtype=np.float64)
        import scipy.sparse as sp

        self._adj = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        self._check_connected()
        # Predecessor/distance tables are built lazily per source and cached.
        self._pred_cache: dict[int, np.ndarray] = {}
        self._dist_cache: dict[int, np.ndarray] = {}

    @property
    def is_weighted(self) -> bool:
        """True when any link has a non-unit transit cost."""
        return self._weighted

    def link_cost(self, a: int, b: int) -> float:
        """Transit cost of the direct link ``(a, b)`` (TopologyError if absent)."""
        a, b = self._check_node(a), self._check_node(b)
        cost = self._adj[a, b]
        if cost == 0:
            raise TopologyError(f"no direct link between {a} and {b}")
        return float(cost)

    def _check_connected(self) -> None:
        from scipy.sparse import csgraph

        n_comp, _ = csgraph.connected_components(self._adj, directed=False)
        if n_comp != 1 and self._num_nodes > 1:
            raise TopologyError(f"topology is disconnected ({n_comp} components)")

    @classmethod
    def from_networkx(cls, graph) -> "ArbitraryTopology":
        """Build from a networkx graph whose nodes are ``0..p-1``."""
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            raise TopologyError("networkx graph nodes must be exactly 0..p-1")
        return cls(len(nodes), graph.edges())

    @property
    def name(self) -> str:
        return f"graph(p={self._num_nodes},links={len(self._edges)})"

    def _bfs(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and shortest-path predecessors from ``node`` (cached)."""
        if node not in self._dist_cache:
            from scipy.sparse import csgraph

            dist, pred = csgraph.shortest_path(
                self._adj,
                method="D" if self._weighted else "BF",
                unweighted=not self._weighted,
                directed=False,
                indices=node,
                return_predecessors=True,
            )
            self._dist_cache[node] = (
                dist.astype(np.float64) if self._weighted else dist.astype(np.int32)
            )
            self._pred_cache[node] = pred.astype(np.int64)
        return self._dist_cache[node], self._pred_cache[node]

    def distance_row(self, node: int) -> np.ndarray:
        node = self._check_node(node)
        return self._bfs(node)[0]

    def distance(self, a: int, b: int) -> float:
        """Shortest-path cost (may be fractional on weighted machines)."""
        a, b = self._check_node(a), self._check_node(b)
        value = self.distance_row(a)[b]
        return float(value) if self._weighted else int(value)

    def neighbors(self, node: int) -> list[int]:
        node = self._check_node(node)
        return [int(x) for x in self._adj.indices[self._adj.indptr[node]:self._adj.indptr[node + 1]]]

    def route(self, src: int, dst: int) -> list[int]:
        src = self._check_node(src)
        dst = self._check_node(dst)
        if src == dst:
            return [src]
        _, pred = self._bfs(src)
        path = [dst]
        cur = dst
        while cur != src:
            cur = int(pred[cur])
            if cur < 0:  # pragma: no cover - unreachable on connected graphs
                raise TopologyError(f"no route from {src} to {dst}")
            path.append(cur)
        path.reverse()
        return path

    def diameter(self) -> float:
        """Longest shortest-path cost (fractional on weighted machines)."""
        worst = max(float(self.distance_row(v).max()) for v in range(self._num_nodes))
        return worst if self._weighted else int(worst)

    def links(self):
        yield from self._edges

    def num_links(self) -> int:
        return len(self._edges)
