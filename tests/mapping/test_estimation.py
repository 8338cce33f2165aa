"""Tests for the estimation-function helpers and TopoLB internals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping.estimation import EstimatorOrder, average_distance_vector
from repro.topology import Mesh, Torus


class TestAverageDistanceVector:
    def test_full_set_is_row_means(self):
        topo = Mesh((3, 3))
        avg = average_distance_vector(topo)
        mat = topo.distance_matrix()
        assert avg == pytest.approx(mat.mean(axis=1))

    def test_torus_uniform(self):
        """Vertex-transitive machine: every processor has the same average."""
        avg = average_distance_vector(Torus((4, 4)))
        assert np.allclose(avg, avg[0])

    def test_mesh_center_smaller_than_corner(self):
        topo = Mesh((5, 5))
        avg = average_distance_vector(topo)
        center = topo.index((2, 2))
        corner = topo.index((0, 0))
        assert avg[center] < avg[corner]



class TestEstimatorOrder:
    def test_values(self):
        assert EstimatorOrder.FIRST == 1
        assert EstimatorOrder.SECOND == 2
        assert EstimatorOrder.THIRD == 3

    def test_coercion(self):
        assert EstimatorOrder(2) is EstimatorOrder.SECOND
        with pytest.raises(ValueError):
            EstimatorOrder(4)
