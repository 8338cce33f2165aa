"""Tests for structured pattern generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TaskGraphError
from repro.taskgraph import all_to_all_pattern, mesh2d_pattern, mesh3d_pattern, ring_pattern
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.patterns import mesh_pattern


class TestMeshPattern:
    def test_2d_sizes(self):
        g = mesh2d_pattern(4, 5)
        assert g.num_tasks == 20
        # r(c-1) + c(r-1) undirected edges
        assert g.num_edges == 4 * 4 + 5 * 3

    def test_3d_sizes(self):
        g = mesh3d_pattern(3, 3, 3)
        assert g.num_tasks == 27
        assert g.num_edges == 3 * (2 * 3 * 3)

    def test_degree_structure_2d(self):
        g = mesh2d_pattern(4, 4)
        degs = sorted(g.degrees().tolist())
        # 4 corners with 2, 8 boundary with 3, 4 interior with 4
        assert degs == [2] * 4 + [3] * 8 + [4] * 4

    def test_interior_degree_3d(self):
        g = mesh3d_pattern(4, 4, 4)
        assert g.degrees().max() == 6

    def test_edge_weight_is_bidirectional_traffic(self):
        g = mesh2d_pattern(2, 2, message_bytes=100.0)
        for _, _, w in g.edges():
            assert w == 200.0

    def test_periodic_adds_wraparound(self):
        g = mesh_pattern((4, 4), periodic=True)
        assert g.num_edges == 2 * 16  # torus pattern: p edges per axis
        assert (g.degrees() == 4).all()

    def test_periodic_skips_short_axes(self):
        g = mesh_pattern((2, 4), periodic=True)
        # 2-extent axis gains no wrap edge (it would duplicate the mesh edge)
        assert g.num_edges == 4 * 1 + 2 * 4

    def test_compute_load(self):
        g = mesh2d_pattern(3, 3, compute_load=2.5)
        assert (g.vertex_weights == 2.5).all()

    def test_bad_params(self):
        with pytest.raises(TaskGraphError):
            mesh2d_pattern(0, 3)
        with pytest.raises(TaskGraphError):
            mesh2d_pattern(3, 3, message_bytes=0.0)

    def test_matches_grid_adjacency(self):
        g = mesh2d_pattern(3, 4)
        # Task ids are C-order: task (r, c) = 4r + c.
        assert 1 in g.neighbor_slice(0)[0]
        assert 4 in g.neighbor_slice(0)[0]
        assert 5 not in g.neighbor_slice(0)[0]
        assert 4 not in g.neighbor_slice(3)[0]  # row wrap must not exist


class TestRingPattern:
    def test_structure(self):
        g = ring_pattern(5)
        assert g.num_edges == 5
        assert (g.degrees() == 2).all()

    def test_too_small(self):
        with pytest.raises(TaskGraphError):
            ring_pattern(2)


class TestAllToAll:
    def test_structure(self):
        g = all_to_all_pattern(6)
        assert g.num_edges == 15
        assert (g.degrees() == 5).all()

    def test_total_bytes(self):
        g = all_to_all_pattern(4, message_bytes=10.0)
        assert g.total_bytes == 6 * 20.0

    def test_too_small(self):
        with pytest.raises(TaskGraphError):
            all_to_all_pattern(1)


def _tuple_mesh(shape, message_bytes, periodic):
    """The generator's former body: one ``(u, v, w)`` tuple per edge."""
    shape = tuple(shape)
    n = int(np.prod(shape))
    ids = np.arange(n).reshape(shape)
    edges = []
    w = 2.0 * float(message_bytes)
    for axis in range(len(shape)):
        a = ids.take(range(shape[axis] - 1), axis=axis).ravel()
        b = ids.take(range(1, shape[axis]), axis=axis).ravel()
        edges.extend((int(x), int(y), w) for x, y in zip(a, b))
        if periodic and shape[axis] > 2:
            first = ids.take([0], axis=axis).ravel()
            last = ids.take([shape[axis] - 1], axis=axis).ravel()
            edges.extend((int(x), int(y), w) for x, y in zip(last, first))
    return TaskGraph(n, edges, np.full(n, 1.0))


def _assert_same_graph(got, want):
    assert got.content_digest() == want.content_digest()
    for a, b in zip(got.csr_arrays(), want.csr_arrays()):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestArrayBuiltPatterns:
    """The generators hand edge arrays to ``TaskGraph.from_arrays``; the
    graphs equal the per-edge tuple construction, digest and CSR."""

    @pytest.mark.parametrize("shape", [(1,), (2,), (6,), (1, 4), (2, 2),
                                       (3, 5), (2, 3, 4), (4, 4, 4)],
                             ids=str)
    @pytest.mark.parametrize("periodic", [False, True])
    def test_mesh_equals_tuple_construction(self, shape, periodic):
        _assert_same_graph(mesh_pattern(shape, 3.5, periodic=periodic),
                           _tuple_mesh(shape, 3.5, periodic))

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_ring_and_all_to_all_equal_tuple_construction(self, n):
        _assert_same_graph(ring_pattern(n, 2.5), TaskGraph(
            n, [(i, (i + 1) % n, 5.0) for i in range(n)]))
        _assert_same_graph(all_to_all_pattern(n, 2.5), TaskGraph(
            n, [(i, j, 5.0) for i in range(n) for j in range(i + 1, n)]))
