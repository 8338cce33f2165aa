"""Tests for the Bokhari mapper and its cardinality metric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MappingError
from repro.mapping import (
    BokhariMapper,
    RandomMapper,
    TopoLB,
    cardinality,
)
from repro.taskgraph import TaskGraph, mesh2d_pattern, random_taskgraph
from repro.topology import Mesh, Torus


class TestBokhariMapper:
    def test_bijection(self):
        topo = Mesh((4, 4))
        g = random_taskgraph(16, edge_prob=0.3, seed=0)
        mapping = BokhariMapper(seed=0).map(g, topo)
        assert mapping.is_bijection()

    def test_cardinality_improves_over_random(self):
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        rand_card = cardinality(RandomMapper(seed=0).map(g, topo))
        bok_card = cardinality(BokhariMapper(seed=0).map(g, topo))
        assert bok_card > rand_card

    def test_deterministic(self):
        topo = Torus((4, 4))
        g = random_taskgraph(16, edge_prob=0.3, seed=3)
        a = BokhariMapper(seed=5).map(g, topo).assignment
        b = BokhariMapper(seed=5).map(g, topo).assignment
        assert (a == b).all()

    def test_cardinality_blind_to_weights(self):
        """The historical weakness: cardinality ignores byte volumes, so a
        Bokhari-optimal mapping can be much worse in hop-bytes than TopoLB
        on weight-skewed instances."""
        rng = np.random.default_rng(0)
        # A cycle with one overwhelmingly heavy edge.
        n = 12
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        edges.append((0, 6, 1e6))
        g = TaskGraph(n, edges)
        topo = Torus((n,))
        tlb = TopoLB().map(g, topo)
        # TopoLB puts the heavy pair adjacent.
        assert topo.distance(tlb.processor_of(0), tlb.processor_of(6)) == 1

    def test_validation(self):
        with pytest.raises(MappingError):
            BokhariMapper(jumps=-1)
        with pytest.raises(MappingError):
            BokhariMapper(max_sweeps=0)


class TestCardinalityMetric:
    def test_identity_stencil_full_cardinality(self):
        g = mesh2d_pattern(4, 4)
        topo = Torus((4, 4))
        from repro.mapping import IdentityMapper

        assert cardinality(IdentityMapper().map(g, topo)) == g.num_edges

    def test_colocated_edges_not_counted(self):
        from repro.mapping import Mapping

        g = TaskGraph(2, [(0, 1, 5.0)])
        topo = Mesh((2, 2))
        assert cardinality(Mapping(g, topo, [0, 0])) == 0

    def test_empty_graph(self):
        from repro.mapping import Mapping

        g = TaskGraph(2)
        assert cardinality(Mapping(g, Mesh((2,)), [0, 1])) == 0
