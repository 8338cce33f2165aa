"""Recursive bisection with BFS graph growing.

Each split grows one side outward from a pseudo-peripheral seed in BFS order
until it holds the target share of the load — the classic "greedy graph
growing" initial-partition scheme from the multilevel literature. Growing a
connected blob keeps heavily-communicating tasks together, which is the
comm-reducing property the paper asks of its phase-1 partitioner.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.partition.base import Partitioner, csr_lists
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng

__all__ = ["RecursiveBisectionPartitioner", "grow_bisection"]

# Per-vertex growth state in ``grow_bisection``; zero is outside the subset.
_FREE, _QUEUED, _PICKED = 1, 2, 3


class RecursiveBisectionPartitioner(Partitioner):
    """Balanced k-way partition via recursive BFS-grown bisection."""

    strategy_name = "RecursiveBisection"

    def __init__(self, seed: int | np.random.Generator | None = 0):
        self._seed = seed

    def partition(self, graph: TaskGraph, k: int) -> np.ndarray:
        k = self._check(graph, k)
        n = graph.num_tasks
        rng = as_rng(self._seed)
        groups = np.zeros(n, dtype=np.int64)
        self._split(graph, csr_lists(graph), np.arange(n), k, 0, groups, rng)
        return self._validate_result(groups, n, k)

    # ------------------------------------------------------------------ split
    def _split(self, graph: TaskGraph, csr: tuple, subset: np.ndarray, k: int,
               base: int, groups: np.ndarray, rng: np.random.Generator) -> None:
        if k == 1:
            groups[subset] = base
            return
        k1 = k // 2
        k2 = k - k1
        side_a = grow_bisection(graph, csr, subset, k1, k2, rng)
        self._split(graph, csr, subset[side_a], k1, base, groups, rng)
        self._split(graph, csr, subset[~side_a], k2, base + k1, groups, rng)


def grow_bisection(graph: TaskGraph, csr: tuple, subset: np.ndarray,
                   k1: int, k2: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask over ``subset``: True = side A (gets k1 groups).

    ``csr`` is :func:`csr_lists` of ``graph``. Side A ends with at least
    ``k1`` vertices and leaves at least ``k2`` (``k1 + k2 <= len(subset)``);
    within those bounds growth stops once side A holds its share ``k1/k``
    of the subset's load.
    """
    indptr, indices, _, weights = csr
    total = float(graph.vertex_weights[subset].sum())
    target = total * k1 / (k1 + k2)

    members = subset.tolist()
    state = bytearray(graph.num_tasks)
    np.frombuffer(state, dtype=np.uint8)[subset] = _FREE

    seed = _pseudo_peripheral(indptr, indices, subset, state, rng)
    queue: deque[int] = deque([seed])
    state[seed] = _QUEUED
    acc_weight = 0.0
    count = 0
    max_count = len(members) - k2
    scan = 0  # every member before ``scan`` is picked

    while count < max_count:
        if not queue:
            # Disconnected remainder: restart from the first unpicked member.
            while state[members[scan]] == _PICKED:
                scan += 1
            queue.append(members[scan])
            state[members[scan]] = _QUEUED
        v = queue.popleft()
        # Stop at the load target once the count floor is satisfied.
        if count >= k1 and acc_weight + 0.5 * weights[v] >= target:
            break
        state[v] = _PICKED
        acc_weight += weights[v]
        count += 1
        for nbr in indices[indptr[v]:indptr[v + 1]]:
            if state[nbr] == _FREE:
                queue.append(nbr)
                state[nbr] = _QUEUED
    return np.frombuffer(state, dtype=np.uint8)[subset] == _PICKED


def _pseudo_peripheral(indptr: list[int], indices: list[int], subset: np.ndarray,
                       state: bytearray, rng: np.random.Generator) -> int:
    """A vertex far from the subset's 'center': two BFS sweeps.

    Start from a random subset vertex, BFS to the farthest vertex, repeat
    once — the standard cheap approximation of a peripheral seed.
    """
    start = int(subset[rng.integers(0, len(subset))])
    for _ in range(2):
        unseen = bytearray(state)  # non-zero exactly on the subset
        unseen[start] = 0
        frontier = [start]
        last = start
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for nbr in indices[indptr[v]:indptr[v + 1]]:
                    if unseen[nbr]:
                        unseen[nbr] = 0
                        nxt.append(nbr)
            if nxt:
                last = nxt[-1]
            frontier = nxt
        start = last
    return start
