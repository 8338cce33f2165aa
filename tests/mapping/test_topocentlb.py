"""TopoCentLB's and LinearOrderLB's selection: a first-maximum scan over one
key array, which must pick exactly what the paper's max-heap picks.

``_heap_oracle`` is that heap, from ``heapq``: keyed by placed volume, the
largest key first, ties to the lowest task id, with lazy deletion of stale
entries. Both TopoCentLB bodies must place as the heap-driven loop does, and
LinearOrderLB's task order must be the heap's order, on integer weights
(which tie) over several components (each of which starts from a seed).
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapping import TopoCentLB
from repro.mapping.kernels import KERNELS
from repro.mapping.linear_order import LinearOrderingMapper
from repro.mapping.topocentlb import seed_keys
from repro.taskgraph.graph import TaskGraph
from repro.topology import Mesh, Torus

TORUS = Torus((5, 5))


def _heap_oracle(graph, topo=None):
    """The heap's selection order and, given ``topo``, TopoCentLB's
    placements in that order: the least first-order cost, ties to the least
    distance from the first seed, or, with no placed neighbour, the most
    central free processor."""
    indptr, indices, weights = graph.csr_arrays()
    keys = seed_keys(graph).tolist()
    heap = [(-k, t) for t, k in enumerate(keys)]
    heapq.heapify(heap)
    order, placed = [], np.full(graph.num_tasks, -1)
    free = None if topo is None else np.ones(topo.num_nodes, dtype=bool)
    dist = None if topo is None else topo.distance_matrix().astype(np.float64)
    anchor = -1
    while heap:
        key, t = heapq.heappop(heap)
        if placed[t] >= 0 or -key != keys[t]:
            continue  # placed already, or a stale key
        order.append(t)
        lo, hi = indptr[t], indptr[t + 1]
        nbrs, wts = indices[lo:hi], weights[lo:hi]
        on = placed[nbrs] >= 0
        q = 0
        if topo is not None:
            ids = np.flatnonzero(free)
            if on.any():
                cost = wts[on] @ dist[placed[nbrs[on]]][:, ids]
                ties = ids[cost <= cost.min()]
                q = int(ties[np.argmin(dist[anchor, ties])])
            else:
                q = int(ids[np.argmin(dist[np.ix_(ids, ids)].mean(axis=1))])
                anchor = q if anchor < 0 else anchor
            free[q] = False
        placed[t] = q
        for j, c in zip(nbrs[~on], wts[~on]):
            keys[j] += c
            heapq.heappush(heap, (-keys[j], int(j)))
    return order, placed


@st.composite
def _components(draw):
    """2 to 4 random components of 1 to 6 tasks, integer weights 0..3."""
    edges, n = [], 0
    for size in draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)):
        pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                        st.integers(0, size - 1)),
                              max_size=2 * size))
        edges += [(n + a, n + b, float(draw(st.integers(0, 3))))
                  for a, b in pairs if a != b]
        n += size
    return TaskGraph(n, edges)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=_components())
def test_linear_task_order_is_the_heap_order(graph):
    order, _ = _heap_oracle(graph)
    assert LinearOrderingMapper._task_order(graph).tolist() == order


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=_components())
def test_both_topocentlb_bodies_place_as_the_heap_did(graph):
    _, placed = _heap_oracle(graph, TORUS)
    for kernel in KERNELS:
        got = TopoCentLB(kernel=kernel).map(graph, TORUS).assignment
        np.testing.assert_array_equal(got, placed, err_msg=kernel)


class TestZeroWeightEdges:
    """A zero-weight edge adds nothing to any key, so it must not change
    which task goes first: the path 0-1-2-3 starts from task 2, its most
    communicating task, whether the 0-1 edge weighs 0 or 0.5."""

    @staticmethod
    def _path(w01):
        return TaskGraph(4, [(0, 1, w01), (1, 2, 1.0), (2, 3, 100.0)])

    def test_seed_keys_ignore_zero_weights(self):
        assert int(np.argmax(seed_keys(self._path(0.0)))) == 2
        assert seed_keys(TaskGraph(3, [(0, 1, 0.0)])).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_topocentlb_seeds_the_most_communicating_task(self, kernel):
        line = Mesh((4,))  # processors 1 and 2 are the most central
        for w01 in (0.0, 0.5):
            mapping = TopoCentLB(kernel=kernel).map(self._path(w01), line)
            assert mapping.assignment.tolist() == [3, 2, 1, 0], w01

    def test_linear_order_starts_from_the_most_communicating_task(self):
        for w01 in (0.0, 0.5):
            order = LinearOrderingMapper._task_order(self._path(w01))
            assert order.tolist() == [2, 3, 1, 0], w01
