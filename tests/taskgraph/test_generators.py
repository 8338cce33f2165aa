"""Tests for random and LeanMD task-graph generators."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.exceptions import TaskGraphError
from repro.taskgraph import (
    geometric_taskgraph,
    leanmd_taskgraph,
    random_taskgraph,
)
from repro.taskgraph.leanmd import LEANMD_BASE_CHARES


def _is_connected(graph) -> bool:
    n_components, _ = connected_components(graph.adjacency_csr(), directed=False)
    return n_components == 1


class TestRandomTaskgraph:
    def test_reproducible(self):
        g1 = random_taskgraph(30, seed=7)
        g2 = random_taskgraph(30, seed=7)
        assert list(g1.edges()) == list(g2.edges())

    def test_different_seeds_differ(self):
        g1 = random_taskgraph(30, seed=1)
        g2 = random_taskgraph(30, seed=2)
        assert list(g1.edges()) != list(g2.edges())

    def test_connected_by_default(self):
        for seed in range(5):
            assert _is_connected(random_taskgraph(25, edge_prob=0.01, seed=seed))

    def test_edge_probability_scales_density(self):
        sparse = random_taskgraph(40, edge_prob=0.02, seed=0, connected=False)
        dense = random_taskgraph(40, edge_prob=0.5, seed=0, connected=False)
        assert dense.num_edges > sparse.num_edges

    def test_bad_params(self):
        with pytest.raises(TaskGraphError):
            random_taskgraph(1)
        with pytest.raises(TaskGraphError):
            random_taskgraph(10, edge_prob=1.5)


class TestGeometricTaskgraph:
    def test_connected(self):
        assert _is_connected(geometric_taskgraph(40, seed=3))

    def test_positive_weights(self):
        g = geometric_taskgraph(30, seed=1)
        assert (g.edge_arrays()[2] > 0).all()

    def test_bad_radius(self):
        with pytest.raises(TaskGraphError):
            geometric_taskgraph(10, radius=0)


class TestLeanMD:
    def test_paper_chare_count(self):
        # 3240 + p, the paper's exact count.
        for p in (18, 512):
            g = leanmd_taskgraph(p)
            assert g.num_tasks == LEANMD_BASE_CHARES + p

    def test_structure_components(self):
        g = leanmd_taskgraph(16, cells_shape=(4, 4, 4))
        # 64 cells + 64 self + 13*64 pair + 16 managers
        assert g.num_tasks == 64 + 64 + 13 * 64 + 16

    def test_cells_are_hubs(self):
        g = leanmd_taskgraph(8, cells_shape=(4, 4, 4))
        degs = g.degrees()
        # Each cell talks to its self-compute + 26 pair-computes (+ managers).
        assert degs[:64].min() >= 27
        # Pair computes talk to exactly two cells.
        assert (degs[128 : 128 + 13 * 64] == 2).all()

    def test_connected(self):
        assert _is_connected(leanmd_taskgraph(12, cells_shape=(3, 3, 3)))

    def test_loads_positive_and_heterogeneous(self):
        g = leanmd_taskgraph(32)
        assert (g.vertex_weights > 0).all()
        assert np.unique(g.vertex_weights).size > 10

    def test_reproducible(self):
        g1 = leanmd_taskgraph(10, seed=4)
        g2 = leanmd_taskgraph(10, seed=4)
        assert list(g1.edges()) == list(g2.edges())

    def test_bad_params(self):
        with pytest.raises(TaskGraphError):
            leanmd_taskgraph(0)
        with pytest.raises(TaskGraphError):
            leanmd_taskgraph(4, cells_shape=(2, 3, 3))
