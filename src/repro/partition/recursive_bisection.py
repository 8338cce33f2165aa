"""Recursive bisection with BFS graph growing.

Each split grows one side outward from a pseudo-peripheral seed in BFS order
until it holds the target share of the load — the classic "greedy graph
growing" initial-partition scheme from the multilevel literature. Growing a
connected blob keeps heavily-communicating tasks together, which is the
comm-reducing property the paper asks of its phase-1 partitioner.

The recursion works on ``(lo, hi)`` ranges of one ``order`` array: each
bisection splits its range in place, stably, side A first, and the leaves'
sizes fill ``groups`` once at the end. The recursion is compiled or
reference: it runs ``partition_recursive`` (:mod:`repro.mapping._native`)
in one call, which draws each split's seed ``rng.integers(0, hi - lo)``
through the Generator's own bit generator and sums the range's load
pairwise as NumPy does; or, when no C compiler is available or
``REPRO_NO_NATIVE`` is set, its reference body :func:`_split_lists`, which
makes those two steps in NumPy and bisects with :func:`_bisect_lists`, a
loop over :func:`csr_lists`. :func:`grow_bisection` runs one bisection,
``partition_bisect`` or :func:`_bisect_lists`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

import numpy as np

from repro.partition.base import Partitioner, csr_lists
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng

__all__ = ["RecursiveBisectionPartitioner", "grow_bisection"]

# Per-vertex growth state in ``_bisect_lists``; zero is outside the range.
_FREE, _QUEUED, _PICKED = 1, 2, 3

# ``bisect(lo, hi, r, k1, k2, target) -> |A|`` over one order array.
Bisect = Callable[[int, int, int, int, int, float], int]


class RecursiveBisectionPartitioner(Partitioner):
    """Balanced k-way partition via recursive BFS-grown bisection."""

    strategy_name = "RecursiveBisection"

    def __init__(self, seed: int | np.random.Generator | None = 0):
        self._seed = seed

    def partition(self, graph: TaskGraph, k: int) -> np.ndarray:
        k = self._check(graph, k)
        n = graph.num_tasks
        rng = as_rng(self._seed)
        order = np.arange(n, dtype=np.int64)
        bisect = _bisector(graph, order)
        if isinstance(bisect, partial):  # the reference walk
            sizes = _split_lists(bisect, graph.vertex_weights, order, k, rng)
        else:
            sizes = bisect.split(k, rng)
        groups = np.empty(n, dtype=np.int64)
        groups[order] = np.repeat(np.arange(k), sizes)
        return self._validate_result(groups, n, k)


def grow_bisection(graph: TaskGraph, csr: tuple, subset: np.ndarray,
                   k1: int, k2: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask over ``subset``: True = side A (gets k1 groups).

    ``csr`` is :func:`csr_lists` of ``graph`` (read only without the
    compiled kernel). Side A ends with at least ``k1`` vertices and leaves
    at least ``k2`` (``k1 + k2 <= len(subset)``); within those bounds growth
    stops once side A holds its share ``k1/k`` of the subset's load.
    """
    order = np.array(subset, dtype=np.int64)
    target = _target(graph.vertex_weights, subset, k1, k2)
    r = int(rng.integers(0, len(subset)))
    na = _bisector(graph, order, csr)(0, len(order), r, k1, k2, target)
    side_a = np.zeros(graph.num_tasks, dtype=bool)
    side_a[order[:na]] = True
    return side_a[subset]


def _split_lists(bisect: Bisect, weights: np.ndarray, order: np.ndarray,
                 k: int, rng: np.random.Generator) -> np.ndarray:
    """Leaf sizes of the recursive bisection of ``order`` into ``k``
    leaves — the reference body of ``partition_recursive``. A range of
    ``k > 1`` leaves draws its seed, bisects toward its :func:`_target`
    into ``k // 2`` and the rest, then splits side A and side B in that
    order."""
    sizes = np.zeros(k, dtype=np.int64)

    def split(lo: int, hi: int, k: int, base: int) -> None:
        if k == 1:
            sizes[base] = hi - lo
            return
        k1 = k // 2
        k2 = k - k1
        mid = lo + bisect(lo, hi, int(rng.integers(0, hi - lo)), k1, k2,
                          _target(weights, order[lo:hi], k1, k2))
        split(lo, mid, k1, base)
        split(mid, hi, k2, base + k1)

    split(0, len(order), k, 0)
    return sizes


def _target(weights: np.ndarray, members: np.ndarray, k1: int, k2: int) -> float:
    """Side A's load share: NumPy's pairwise sum over ``members`` in order."""
    return float(weights[members].sum()) * k1 / (k1 + k2)


def _bisector(graph: TaskGraph, order: np.ndarray, csr: tuple | None = None) -> Bisect:
    """The compiled bisection bound to ``order``, else the reference walk."""
    from repro.mapping import _native  # repro.mapping imports this package

    native = _native.kernels_or_fallback()
    if native is not None:
        indptr, indices, _ = graph.csr_arrays()
        return native.partition_bisector(indptr, indices, graph.vertex_weights, order)
    return partial(_bisect_lists, csr or csr_lists(graph), order)


def _bisect_lists(csr: tuple, order: np.ndarray, lo: int, hi: int, r: int,
                  k1: int, k2: int, target: float) -> int:
    """Grow side A over ``order[lo:hi]``, split the range stably, side A
    first, and return |A| — the reference body of ``partition_bisect``."""
    indptr, indices, _, weights = csr
    subset = order[lo:hi]
    members = subset.tolist()
    state = bytearray(len(weights))
    np.frombuffer(state, dtype=np.uint8)[subset] = _FREE

    seed = _pseudo_peripheral(indptr, indices, members[r], state)
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
    side_a = np.frombuffer(state, dtype=np.uint8)[subset] == _PICKED
    order[lo:hi] = np.concatenate((subset[side_a], subset[~side_a]))
    return count


def _pseudo_peripheral(indptr: list[int], indices: list[int], start: int,
                       state: bytearray) -> int:
    """A vertex far from the subset's 'center': two BFS sweeps.

    BFS from ``start`` (a random subset vertex) to the farthest vertex,
    repeat once — the standard cheap approximation of a peripheral seed.
    """
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
