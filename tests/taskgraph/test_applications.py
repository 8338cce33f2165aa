"""Tests for the application-class pattern generators."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.exceptions import TaskGraphError
from repro.mapping import RandomMapper, TopoLB
from repro.taskgraph import (
    amr_pattern,
    fft_pencil_pattern,
    unstructured_halo_pattern,
    wavefront_pattern,
)
from repro.topology import Torus


def _connected(graph) -> bool:
    n_components, _ = connected_components(graph.adjacency_csr(), directed=False)
    return n_components == 1


class TestFFTPencil:
    def test_structure(self):
        g = fft_pencil_pattern(4, 6)
        assert g.num_tasks == 24
        # per task: (cols-1) row peers + (rows-1) column peers
        assert (g.degrees() == (6 - 1) + (4 - 1)).all()

    def test_edge_count(self):
        g = fft_pencil_pattern(4, 4)
        # rows * C(cols,2) + cols * C(rows,2)
        assert g.num_edges == 4 * 6 + 4 * 6

    def test_row_locality_exploitable(self):
        """TopoLB should keep process-grid rows together on a torus."""
        topo = Torus((4, 4))
        g = fft_pencil_pattern(4, 4)
        tlb = TopoLB().map(g, topo).hops_per_byte
        rand = np.mean([RandomMapper(seed=s).map(g, topo).hops_per_byte
                        for s in range(3)])
        assert tlb < rand

    def test_validation(self):
        with pytest.raises(TaskGraphError):
            fft_pencil_pattern(1, 4)
        with pytest.raises(TaskGraphError):
            fft_pencil_pattern(4, 4, bytes_per_peer=0)


class TestWavefront:
    def test_structure(self):
        g = wavefront_pattern(4, 5)
        assert g.num_tasks == 20
        assert g.num_edges == 4 * 4 + 5 * 3  # same grid edges as Jacobi

    def test_half_jacobi_volume(self):
        from repro.taskgraph import mesh2d_pattern

        wf = wavefront_pattern(4, 4, message_bytes=100.0)
        jac = mesh2d_pattern(4, 4, message_bytes=100.0)
        assert wf.total_bytes == pytest.approx(jac.total_bytes / 2)

    def test_connected(self):
        assert _connected(wavefront_pattern(5, 5))


class TestAMR:
    def test_structure(self):
        g = amr_pattern(8, refine_frac=0.25, seed=0)
        # 64 coarse + (2*2)^2 fine cells
        assert g.num_tasks == 64 + 16

    def test_fine_cells_have_parent_links(self):
        g = amr_pattern(8, refine_frac=0.25, seed=0)
        fine_start = 64
        for t in range(fine_start, g.num_tasks):
            # at least one neighbor is a coarse cell (the parent)
            assert any(j < fine_start for j in g.neighbors(t))

    def test_degree_nonuniform(self):
        g = amr_pattern(8, refine_frac=0.5, seed=1)
        degs = g.degrees()
        assert degs.max() >= degs.min() + 3

    def test_connected(self):
        assert _connected(amr_pattern(6, seed=2))

    def test_reproducible(self):
        a = amr_pattern(8, seed=5)
        b = amr_pattern(8, seed=5)
        assert list(a.edges()) == list(b.edges())

    def test_validation(self):
        with pytest.raises(TaskGraphError):
            amr_pattern(3)
        with pytest.raises(TaskGraphError):
            amr_pattern(8, refine_frac=0.0)


class TestUnstructuredHalo:
    def test_planar_degrees(self):
        g = unstructured_halo_pattern(100, seed=0)
        # Delaunay planarity: average degree < 6.
        assert g.degrees().mean() < 6.0

    def test_connected(self):
        assert _connected(unstructured_halo_pattern(60, seed=1))

    def test_closer_pairs_heavier(self):
        g = unstructured_halo_pattern(50, seed=2)
        w = g.edge_arrays()[2]
        assert w.max() > 2 * w.min()  # inverse-distance spread

    def test_mapping_gains(self):
        topo = Torus((8, 8))
        g = unstructured_halo_pattern(64, seed=3)
        tlb = TopoLB().map(g, topo).hops_per_byte
        rand = RandomMapper(seed=0).map(g, topo).hops_per_byte
        assert tlb < 0.6 * rand

    def test_too_small(self):
        with pytest.raises(TaskGraphError):
            unstructured_halo_pattern(3)
