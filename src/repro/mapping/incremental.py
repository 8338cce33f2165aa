"""Incremental topology-aware rebalancing of an existing placement.

Charm++'s production pattern is not "remap everything every step": a
``Refine``-class balancer perturbs the *current* placement just enough to
restore load balance, because every migrated object pays serialization
(PUP) and transfer costs. :class:`IncrementalRefineLB` is that balancer with
the paper's topology-awareness: when a task must leave an overloaded
processor, it goes to the underloaded processor where its communication
costs the fewest additional hop-bytes.

Works on many-to-one placements (the general ``n > p`` case); bijections are
a special case it leaves alone (nothing is overloaded).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MappingError
from repro.mapping.base import Mapping
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["IncrementalRefineLB"]


class IncrementalRefineLB:
    """Move as few tasks as possible to restore balance, minimizing hop-bytes.

    Parameters
    ----------
    imbalance_tol:
        Target ceiling: no processor may exceed ``tol * mean load`` after
        rebalancing (when achievable — a single task heavier than the
        ceiling is left where it is).
    max_moves:
        Safety bound on migrations per call (default ``2 n``).
    """

    strategy_name = "IncrementalRefineLB"

    def __init__(self, imbalance_tol: float = 1.10, max_moves: int | None = None):
        if imbalance_tol < 1.0:
            raise MappingError(f"imbalance_tol must be >= 1.0, got {imbalance_tol}")
        self._tol = float(imbalance_tol)
        self._max_moves = max_moves

    def rebalance(self, mapping: Mapping) -> tuple[Mapping, np.ndarray]:
        """Return (new mapping, bool mask of migrated tasks)."""
        graph, topology = mapping.graph, mapping.topology
        n, p = graph.num_tasks, topology.num_nodes
        assign = mapping.assignment.copy()
        weights = graph.vertex_weights
        dist = topology.distance_matrix().astype(np.float64, copy=False)

        loads = np.bincount(assign, weights=weights, minlength=p).astype(np.float64)
        mean = loads.sum() / p
        ceiling = self._tol * mean if mean > 0 else np.inf
        moved = np.zeros(n, dtype=bool)
        budget = self._max_moves if self._max_moves is not None else 2 * n

        for _ in range(budget):
            src = int(np.argmax(loads))
            if loads[src] <= ceiling:
                break
            members = np.flatnonzero(assign == src)
            if len(members) <= 1:
                break  # one giant task; nothing to split
            under = np.flatnonzero(loads < mean)
            if len(under) == 0:
                break
            best: tuple[float, int, int] | None = None
            for t in members:
                t = int(t)
                w = float(weights[t])
                if w <= 0 and len(members) > 1:
                    continue  # moving free tasks doesn't help balance
                nbrs, wts = graph.neighbor_slice(t)
                if len(nbrs):
                    nbr_procs = assign[nbrs]
                    # hop-byte delta of moving t to each candidate proc
                    cost_vec = wts @ dist[np.ix_(nbr_procs, under)]
                    cur_cost = float(wts @ dist[nbr_procs, src])
                    deltas = cost_vec - cur_cost
                else:
                    deltas = np.zeros(len(under))
                for idx in np.argsort(deltas, kind="stable")[:3]:  # few best destinations
                    dst = int(under[idx])
                    if loads[dst] + w > ceiling and loads[dst] + w >= loads[src]:
                        continue
                    cand = (float(deltas[idx]), t, dst)
                    if best is None or cand[0] < best[0]:
                        best = cand
            if best is None:
                break
            delta, t, dst = best
            assign[t] = dst
            loads[src] -= weights[t]
            loads[dst] += weights[t]
            moved[t] = True

        return mapping.with_assignment(assign), moved
