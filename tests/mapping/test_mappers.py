"""Tests for TopoLB, TopoCentLB and the baseline mappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MappingError
from repro.mapping import (
    EstimatorOrder,
    IdentityMapper,
    Mapping,
    RandomMapper,
    TopoCentLB,
    TopoLB,
    expected_random_hops_per_byte,
)
from repro.taskgraph import (
    TaskGraph,
    all_to_all_pattern,
    mesh2d_pattern,
    random_taskgraph,
    ring_pattern,
)
from repro.topology import FatTree, Hypercube, Mesh, Torus
from repro.utils.validation import check_permutation

ALL_MAPPERS = [
    RandomMapper(seed=0),
    IdentityMapper(),
    TopoCentLB(),
    TopoLB(order=EstimatorOrder.FIRST),
    TopoLB(order=EstimatorOrder.SECOND),
    TopoLB(order=EstimatorOrder.THIRD),
]


class TestBijectionInvariant:
    @pytest.mark.parametrize("mapper", ALL_MAPPERS, ids=lambda m: repr(m))
    @pytest.mark.parametrize(
        "topo_factory",
        [lambda: Torus((4, 4)), lambda: Mesh((4, 4)), lambda: Hypercube(4),
         lambda: FatTree(4, 2)],
        ids=["torus", "mesh", "hypercube", "fattree"],
    )
    def test_every_mapper_produces_bijection(self, mapper, topo_factory):
        topo = topo_factory()
        g = random_taskgraph(topo.num_nodes, edge_prob=0.2, seed=1)
        mapping = mapper.map(g, topo)
        check_permutation(mapping.assignment, topo.num_nodes, MappingError)
        assert mapping.is_bijection()

    @pytest.mark.parametrize("mapper", ALL_MAPPERS, ids=lambda m: repr(m))
    def test_size_mismatch_rejected(self, mapper):
        # n > p always asks for partitioning; n < p only where the class
        # cannot place fewer tasks than processors.
        sizes = (20,) if mapper.places_underfull else (20, 10)
        for n in sizes:
            with pytest.raises(MappingError, match="partition"):
                mapper.map(random_taskgraph(n, seed=0), Torus((4, 4)))


class TestMappingObject:
    def test_metrics_cached_and_consistent(self, pattern8x8, torus8x8):
        m = IdentityMapper().map(pattern8x8, torus8x8)
        assert m.hop_bytes == pytest.approx(pattern8x8.total_bytes)
        assert m.hops_per_byte == pytest.approx(1.0)
        assert m.assignment[5] == 5

    def test_assignment_readonly(self, pattern8x8, torus8x8):
        m = IdentityMapper().map(pattern8x8, torus8x8)
        with pytest.raises(ValueError):
            m.assignment[0] = 3

    def test_with_assignment(self, pattern8x8, torus8x8):
        m = IdentityMapper().map(pattern8x8, torus8x8)
        m2 = m.with_assignment(np.roll(np.arange(64), 1))
        assert m2.hops_per_byte > 0

    def test_bad_assignment_rejected(self, pattern8x8, torus8x8):
        with pytest.raises(MappingError):
            Mapping(pattern8x8, torus8x8, [0] * 63)
        with pytest.raises(MappingError):
            Mapping(pattern8x8, torus8x8, [99] * 64)

    def test_many_to_one_not_bijection(self, pattern8x8, torus8x8):
        m = Mapping(pattern8x8, torus8x8, [0] * 64)
        assert not m.is_bijection()
        assert m.hop_bytes == 0.0


class TestRandomMapper:
    def test_seeded_reproducible(self, pattern8x8, torus8x8):
        a = RandomMapper(seed=5).map(pattern8x8, torus8x8).assignment
        b = RandomMapper(seed=5).map(pattern8x8, torus8x8).assignment
        assert (a == b).all()

    def test_matches_expectation(self):
        """Mean hops-per-byte over seeds ~ analytic expectation (Fig 1's check)."""
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        values = [
            RandomMapper(seed=s).map(g, topo).hops_per_byte for s in range(30)
        ]
        expected = expected_random_hops_per_byte(topo, distinct=True)
        assert np.mean(values) == pytest.approx(expected, rel=0.06)


class TestTopoLB:
    def test_optimal_on_matching_torus(self):
        """Paper: TopoLB maps 2D-mesh onto 2D-torus optimally in most cases."""
        for side in (4, 8, 12):
            topo = Torus((side, side))
            g = mesh2d_pattern(side, side)
            assert TopoLB().map(g, topo).hops_per_byte == pytest.approx(1.0)

    def test_optimal_embedding_8x8_in_444(self):
        """Paper Fig 4: (8,8) mesh embeds in (4,4,4) torus; TopoLB finds it."""
        mapping = TopoLB().map(mesh2d_pattern(8, 8), Torus((4, 4, 4)))
        assert mapping.hops_per_byte == pytest.approx(1.0)

    def test_beats_random_substantially(self):
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        topolb = TopoLB().map(g, topo).hops_per_byte
        rand = np.mean(
            [RandomMapper(seed=s).map(g, topo).hops_per_byte for s in range(5)]
        )
        assert topolb < rand / 2

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_all_orders_valid_and_good(self, order):
        topo = Torus((5, 5))
        g = mesh2d_pattern(5, 5)
        mapping = TopoLB(order=order).map(g, topo)
        assert mapping.is_bijection()
        assert mapping.hops_per_byte < 3.0  # far below random's ~2.4+... loose

    def test_order_accessor(self):
        assert TopoLB(order=3).order is EstimatorOrder.THIRD

    @pytest.mark.parametrize("rule", ["gain", "max_cost", "volume"])
    def test_selection_rules_valid(self, rule):
        topo = Torus((4, 4))
        g = mesh2d_pattern(4, 4)
        mapping = TopoLB(selection=rule).map(g, topo)
        assert mapping.is_bijection()
        assert TopoLB(selection=rule).selection == rule

    def test_gain_rule_beats_alternatives_on_stencil(self):
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        results = {
            rule: TopoLB(selection=rule).map(g, topo).hops_per_byte
            for rule in ("gain", "max_cost", "volume")
        }
        assert results["gain"] == min(results.values())
        assert results["gain"] == pytest.approx(1.0)

    def test_bad_selection_rejected(self):
        with pytest.raises(MappingError, match="selection"):
            TopoLB(selection="chaos")

    def test_deterministic(self):
        topo = Torus((4, 4))
        g = random_taskgraph(16, edge_prob=0.3, seed=9)
        a = TopoLB().map(g, topo).assignment
        b = TopoLB().map(g, topo).assignment
        assert (a == b).all()

    def test_edgeless_graph(self):
        g = TaskGraph(9)
        mapping = TopoLB().map(g, Mesh((3, 3)))
        assert mapping.is_bijection()

    def test_single_task(self):
        g = TaskGraph(1)
        mapping = TopoLB().map(g, Mesh((1,)))
        assert mapping.assignment.tolist() == [0]

    def test_weighted_edges_respected(self):
        """A very heavy edge must end up at distance 1."""
        g = TaskGraph(
            8, [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)] + [(0, 7, 1e6)]
        )
        topo = Torus((8,))
        m = TopoLB().map(g, topo)
        assert topo.distance(m.assignment[0], m.assignment[7]) == 1


class TestTopoCentLB:
    def test_good_on_matching_torus(self):
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        hpb = TopoCentLB().map(g, topo).hops_per_byte
        assert hpb < expected_random_hops_per_byte(topo) / 2

    def test_worse_or_equal_to_topolb(self):
        """Paper: TopoLB performs better than TopoCentLB in all tested cases."""
        for side, shape in ((8, (8, 8)), (8, (4, 4, 4))):
            g = mesh2d_pattern(side, side)
            topo = Torus(shape)
            cent = TopoCentLB().map(g, topo).hops_per_byte
            tlb = TopoLB().map(g, topo).hops_per_byte
            assert tlb <= cent + 1e-9

    def test_first_pick_is_most_communicating(self):
        # One hub with overwhelming traffic; it must be placed first and its
        # partners must surround it.
        g = TaskGraph(9, [(0, j, 100.0) for j in range(1, 5)] + [(5, 6, 1.0), (7, 8, 1.0), (1, 5, 1.0), (2, 7, 1.0)])
        topo = Mesh((3, 3))
        m = TopoCentLB().map(g, topo)
        hub = m.assignment[0]
        for j in range(1, 5):
            assert topo.distance(hub, m.assignment[j]) == 1

    def test_ring_stays_local(self):
        topo = Torus((16,))
        m = TopoCentLB().map(ring_pattern(16), topo)
        assert m.hops_per_byte <= 2.0

    def test_deterministic(self):
        topo = Torus((4, 4))
        g = random_taskgraph(16, edge_prob=0.3, seed=9)
        assert (
            TopoCentLB().map(g, topo).assignment
            == TopoCentLB().map(g, topo).assignment
        ).all()

    def test_edgeless_graph(self):
        g = TaskGraph(4)
        assert TopoCentLB().map(g, Mesh((2, 2))).is_bijection()


class TestAllToAllControl:
    def test_mapping_cannot_help_all_to_all(self):
        """On a vertex-transitive machine every bijection of a uniform
        all-to-all pattern has identical hop-bytes (the dense-LeanMD regime)."""
        topo = Torus((4, 4))
        g = all_to_all_pattern(16)
        hb_random = RandomMapper(seed=0).map(g, topo).hop_bytes
        hb_topolb = TopoLB().map(g, topo).hop_bytes
        assert hb_topolb == pytest.approx(hb_random)


class TestFatTreeContrast:
    def test_mapping_gain_small_on_fattree(self):
        """The paper's motivation: on fat-trees contention/mapping matters
        little; the TopoLB-vs-random gap collapses relative to a torus."""
        g = mesh2d_pattern(4, 4)
        ft = FatTree(4, 2)
        torus = Torus((4, 4))
        gain_ft = (
            RandomMapper(seed=0).map(g, ft).hops_per_byte
            / TopoLB().map(g, ft).hops_per_byte
        )
        gain_torus = (
            RandomMapper(seed=0).map(g, torus).hops_per_byte
            / TopoLB().map(g, torus).hops_per_byte
        )
        assert gain_torus > gain_ft
