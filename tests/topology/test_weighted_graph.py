"""Tests for weighted (heterogeneous) arbitrary topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.mapping import TopoLB, RandomMapper
from repro.taskgraph import TaskGraph
from repro.topology import ArbitraryTopology


class TestWeightedTopology:
    def test_unweighted_still_ints(self):
        topo = ArbitraryTopology(3, [(0, 1), (1, 2)])
        assert not topo.is_weighted
        assert topo.distance(0, 2) == 2
        assert topo.distance_matrix().dtype == np.int32

    def test_weighted_distances(self):
        # Expensive direct link vs cheap detour.
        topo = ArbitraryTopology(3, [(0, 1, 10.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert topo.is_weighted
        assert topo.distance(0, 1) == pytest.approx(2.0)  # via node 2
        assert topo.distance_matrix().dtype == np.float64

    def test_weighted_route_takes_detour(self):
        topo = ArbitraryTopology(3, [(0, 1, 10.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert topo.route(0, 1) == [0, 2, 1]

    def test_mixed_edge_forms(self):
        topo = ArbitraryTopology(3, [(0, 1), (1, 2, 2.5)])
        assert topo.is_weighted
        assert topo.distance(0, 2) == pytest.approx(3.5)

    def test_duplicate_keeps_cheapest(self):
        topo = ArbitraryTopology(2, [(0, 1, 5.0), (0, 1, 2.0)])
        assert topo.distance(0, 1) == pytest.approx(2.0)

    def test_link_cost(self):
        topo = ArbitraryTopology(3, [(0, 1, 2.0), (1, 2)])
        assert topo.link_cost(0, 1) == 2.0
        assert topo.link_cost(2, 1) == 1.0
        with pytest.raises(TopologyError, match="no direct link"):
            topo.link_cost(0, 2)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(TopologyError, match="positive cost"):
            ArbitraryTopology(2, [(0, 1, 0.0)])

    def test_diameter_fractional(self):
        topo = ArbitraryTopology(3, [(0, 1, 0.5), (1, 2, 0.25)])
        assert topo.diameter() == pytest.approx(0.75)

    def test_axioms_hold_weighted(self):
        rng = np.random.default_rng(0)
        edges = [(i, (i + 1) % 10, float(rng.uniform(0.5, 3.0))) for i in range(10)]
        edges += [(0, 5, 1.0), (2, 7, 2.0)]
        topo = ArbitraryTopology(10, edges)
        topo.validate_distance_axioms(sample=64)

    def test_mapper_avoids_expensive_links(self):
        """Heterogeneous mapping (Taura & Chien's setting): two heavily
        communicating tasks must land on the cheap side of the machine."""
        # Two islands joined by an expensive link; cheap links inside.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (2, 3, 20.0)]
        topo = ArbitraryTopology(6, edges)
        # Tasks 0-1 exchange a lot; the rest barely talk.
        g = TaskGraph(6, [(0, 1, 1000.0), (2, 3, 1.0), (4, 5, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        mapping = TopoLB().map(g, topo)
        pa, pb = mapping.assignment[0], mapping.assignment[1]
        # Their processors must be direct cheap neighbors (cost 1), never
        # straddling the expensive bridge.
        assert topo.distance(pa, pb) == pytest.approx(1.0)

    def test_weighted_random_vs_topolb(self):
        rng = np.random.default_rng(1)
        edges = [(i, (i + 1) % 12, float(rng.uniform(0.5, 4.0))) for i in range(12)]
        edges += [(i, (i + 3) % 12, float(rng.uniform(0.5, 4.0))) for i in range(0, 12, 2)]
        topo = ArbitraryTopology(12, edges)
        from repro.taskgraph import random_taskgraph

        g = random_taskgraph(12, edge_prob=0.3, seed=2)
        tlb = TopoLB().map(g, topo).hop_bytes
        rand = np.mean([RandomMapper(seed=s).map(g, topo).hop_bytes for s in range(5)])
        assert tlb < rand
