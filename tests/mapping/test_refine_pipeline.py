"""Tests for RefineTopoLB, TwoPhaseMapper and the analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MappingError
from repro.mapping import (
    IdentityMapper,
    Mapping,
    RandomMapper,
    RefineTopoLB,
    TopoLB,
    TwoPhaseMapper,
    hop_bytes,
)
from repro.mapping.analysis import (
    expected_random_hops_per_byte,
    expected_random_pair_distance,
)
from repro.partition import GreedyPartitioner, MultilevelPartitioner
from repro.taskgraph import TaskGraph, leanmd_taskgraph, mesh2d_pattern, random_taskgraph
from repro.topology import Mesh, Torus


class TestRefineTopoLB:
    def test_never_worse(self):
        topo = Torus((5, 5))
        g = random_taskgraph(25, edge_prob=0.25, seed=2)
        for seed in range(4):
            before = RandomMapper(seed=seed).map(g, topo)
            after = RefineTopoLB(seed=seed).refine(before)
            assert after.hop_bytes <= before.hop_bytes + 1e-9

    def test_improves_random_substantially(self):
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        before = RandomMapper(seed=0).map(g, topo)
        after = RefineTopoLB(max_sweeps=20, seed=0).refine(before)
        assert after.hop_bytes < 0.6 * before.hop_bytes

    def test_hop_bytes_recomputed_matches_incremental(self):
        """The refiner's internal cost table must stay consistent: the final
        mapping's recomputed hop-bytes equals what metrics report."""
        topo = Torus((4, 4))
        g = random_taskgraph(16, edge_prob=0.4, seed=7)
        after = RefineTopoLB(seed=1).refine(RandomMapper(seed=1).map(g, topo))
        assert after.hop_bytes == pytest.approx(
            hop_bytes(g, topo, after.assignment)
        )

    def test_result_is_bijection(self):
        topo = Mesh((3, 3))
        g = random_taskgraph(9, edge_prob=0.5, seed=3)
        after = RefineTopoLB(seed=0).refine(RandomMapper(seed=0).map(g, topo))
        assert after.is_bijection()

    def test_fixed_point_of_optimal(self):
        """An optimal 1.0-hops/byte mapping admits no improving swap."""
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        optimal = IdentityMapper().map(g, topo)
        refined = RefineTopoLB(seed=0).refine(optimal)
        assert refined.hop_bytes == pytest.approx(optimal.hop_bytes)

    def test_map_requires_base(self):
        with pytest.raises(MappingError, match="base"):
            RefineTopoLB().map(mesh2d_pattern(2, 2), Torus((2, 2)))

    def test_map_with_base(self):
        topo = Torus((4, 4))
        g = mesh2d_pattern(4, 4)
        m = RefineTopoLB(base=TopoLB(), seed=0).map(g, topo)
        assert m.hops_per_byte <= TopoLB().map(g, topo).hops_per_byte + 1e-9

    def test_requires_bijection(self, pattern8x8, torus8x8):
        squashed = Mapping(pattern8x8, torus8x8, [0] * 64)
        with pytest.raises(MappingError, match="bijective"):
            RefineTopoLB().refine(squashed)

    def test_bad_sweeps(self):
        with pytest.raises(MappingError):
            RefineTopoLB(max_sweeps=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_monotone_improvement(self, seed):
        topo = Torus((3, 4))
        g = random_taskgraph(12, edge_prob=0.3, seed=seed)
        before = RandomMapper(seed=seed).map(g, topo)
        after = RefineTopoLB(max_sweeps=3, seed=seed).refine(before)
        assert after.hop_bytes <= before.hop_bytes + 1e-9
        assert after.is_bijection()

    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(["vectorized", "reference"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_never_worse_any_kernel(self, seed, kernel):
        """Monotone improvement holds for both kernels."""
        topo = Mesh((4, 3))
        g = random_taskgraph(12, edge_prob=0.35, seed=seed % 97)
        before = RandomMapper(seed=seed).map(g, topo)
        after = RefineTopoLB(max_sweeps=3, seed=seed, kernel=kernel).refine(before)
        assert after.hop_bytes <= before.hop_bytes + 1e-9
        assert after.is_bijection()


class TestSetupCostTable:
    """``_setup`` builds C = A @ dist[assign] without the (n, p) gather; the
    relabelled CSR product must equal the gather form bit for bit."""

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_bijective_cost_table_is_bitwise_gather_product(self, seed):
        topo = Torus((4, 5)) if seed % 2 else Mesh((4, 5))
        g = random_taskgraph(20, edge_prob=0.3, seed=seed)
        mapping = RandomMapper(seed=seed).map(g, topo)
        *_, assign, cost = RefineTopoLB(seed=seed)._setup(mapping)
        dist = topo.distance_matrix(np.float64)
        expected = np.asarray(g.adjacency_csr() @ dist[assign])
        assert cost.shape == (20, 20)
        assert cost.tobytes() == expected.tobytes()

    @given(seed=st.integers(0, 5000), n=st.integers(2, 29))
    @settings(max_examples=25, deadline=None)
    def test_underfull_cost_table_is_bitwise_gather_product(self, seed, n):
        """n < p: the table is (n, p) over every processor, unoccupied ones
        included."""
        topo = Torus((5, 6))
        rng = np.random.default_rng(seed)
        g = random_taskgraph(n, edge_prob=0.4, seed=seed)
        placed = rng.choice(30, size=n, replace=False)
        mapping = Mapping(g, topo, placed)
        *_, assign, cost = RefineTopoLB(seed=seed)._setup(mapping)
        dist = topo.distance_matrix(np.float64)
        expected = np.asarray(g.adjacency_csr() @ dist[assign])
        assert cost.shape == (n, 30)
        assert cost.tobytes() == expected.tobytes()


class TestApplySwapDegenerateGuard:
    """Regression: a degenerate swap (same task, or two tasks already on the
    same processor, which non-bijective internal states can produce) must be
    an exact no-op — the old patch path accumulated rounding into the cost
    table instead."""

    @staticmethod
    def _state(assign):
        topo = Torus((3, 3))
        g = random_taskgraph(9, edge_prob=0.5, seed=4)
        dist = topo.distance_matrix(np.float64)
        indptr, indices, weights = g.csr_arrays()
        assign = np.asarray(assign, dtype=np.int64)
        cost = np.asarray(g.adjacency_csr() @ dist[assign])
        return assign, cost, dist, indptr, indices, weights

    def test_same_task_is_noop(self):
        assign, cost, dist, indptr, indices, weights = self._state(range(9))
        assign0, cost0 = assign.copy(), cost.copy()
        RefineTopoLB._apply_swap(3, 3, assign, cost, dist, indptr, indices,
                                 weights)
        np.testing.assert_array_equal(assign, assign0)
        np.testing.assert_array_equal(cost, cost0)

    def test_same_processor_is_noop(self):
        # Crafted non-bijective state: tasks 2 and 5 share processor 7.
        assign, cost, dist, indptr, indices, weights = self._state(
            [0, 1, 7, 3, 4, 7, 6, 2, 8])
        assert assign[2] == assign[5]
        assign0, cost0 = assign.copy(), cost.copy()
        RefineTopoLB._apply_swap(2, 5, assign, cost, dist, indptr, indices,
                                 weights)
        np.testing.assert_array_equal(assign, assign0)
        np.testing.assert_array_equal(cost, cost0)

    def test_real_swap_still_applies(self):
        assign, cost, dist, indptr, indices, weights = self._state(range(9))
        RefineTopoLB._apply_swap(1, 6, assign, cost, dist, indptr, indices,
                                 weights)
        assert assign[1] == 6 and assign[6] == 1
        # Patched table equals a from-scratch rebuild.
        g = random_taskgraph(9, edge_prob=0.5, seed=4)
        np.testing.assert_allclose(cost, g.adjacency_csr() @ dist[assign])


class TestTwoPhaseMapper:
    def test_equal_sizes_skips_partitioning(self):
        topo = Torus((4, 4))
        g = mesh2d_pattern(4, 4)
        tp = TwoPhaseMapper(mapper=TopoLB())
        mapping = tp.map(g, topo)
        assert mapping.is_bijection()
        assert (tp.last_groups == np.arange(16)).all()

    def test_larger_graph_coalesces(self):
        topo = Torus((4, 4))
        g = leanmd_taskgraph(16, cells_shape=(3, 3, 3))
        tp = TwoPhaseMapper()
        mapping = tp.map(g, topo)
        assert mapping.assignment.shape == (g.num_tasks,)
        # Every processor hosts at least one task.
        assert len(np.unique(mapping.assignment)) == 16
        assert tp.last_group_mapping is not None
        assert tp.last_group_mapping.is_bijection()

    def test_expansion_consistent_with_groups(self):
        topo = Torus((3, 3))
        g = random_taskgraph(40, edge_prob=0.1, seed=0)
        tp = TwoPhaseMapper(partitioner=GreedyPartitioner())
        mapping = tp.map(g, topo)
        groups = tp.last_groups
        gmap = tp.last_group_mapping.assignment
        assert (mapping.assignment == gmap[groups]).all()

    def test_refiner_plumbed_through(self):
        topo = Torus((4, 4))
        g = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        plain = TwoPhaseMapper(
            partitioner=MultilevelPartitioner(seed=0), mapper=RandomMapper(seed=0)
        )
        refined = TwoPhaseMapper(
            partitioner=MultilevelPartitioner(seed=0),
            mapper=RandomMapper(seed=0),
            refiner=RefineTopoLB(seed=0),
        )
        assert (
            refined.map(g, topo).hop_bytes <= plain.map(g, topo).hop_bytes + 1e-9
        )

    def test_defaults(self):
        tp = TwoPhaseMapper()
        topo = Torus((3, 3))
        g = random_taskgraph(30, edge_prob=0.2, seed=1)
        assert tp.map(g, topo).assignment.shape == (30,)


class TestAnalysis:
    def test_expected_pair_distance_matches_matrix(self):
        topo = Torus((5, 4))
        assert expected_random_pair_distance(topo) == pytest.approx(
            topo.distance_matrix().mean()
        )

    def test_distinct_correction(self):
        topo = Torus((4, 4))
        mat = topo.distance_matrix().astype(float)
        off = mat[~np.eye(16, dtype=bool)].mean()
        assert expected_random_pair_distance(topo, distinct=True) == pytest.approx(off)

    def test_paper_formulas(self):
        # sqrt(p)/2 on square 2D tori, 3*cbrt(p)/4 on cubic 3D tori.
        assert expected_random_hops_per_byte(Torus((16, 16))) == pytest.approx(8.0)
        assert expected_random_hops_per_byte(Torus((8, 8, 8))) == pytest.approx(6.0)

    def test_arbitrary_topology_fallback(self):
        from repro.topology import ArbitraryTopology

        topo = ArbitraryTopology(3, [(0, 1), (1, 2)])
        assert expected_random_pair_distance(topo) == pytest.approx(
            topo.distance_matrix().mean()
        )

    def test_monte_carlo_agreement(self):
        """Sampled random-mapping hops/byte converges to the formula."""
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        samples = [
            RandomMapper(seed=s).map(g, topo).hops_per_byte for s in range(40)
        ]
        assert np.mean(samples) == pytest.approx(
            expected_random_hops_per_byte(topo, distinct=True), rel=0.05
        )
