"""Tests for structured pattern generators."""

from __future__ import annotations

import pytest

from repro.exceptions import TaskGraphError
from repro.taskgraph import all_to_all_pattern, mesh2d_pattern, mesh3d_pattern, ring_pattern
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
