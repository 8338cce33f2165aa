"""Property and unit tests for the multilevel hierarchical mapper.

Covers the coarse-machine model (GroupedTopology / coarsen_machine), the
HierarchicalMapper's per-level invariants, quality bounds against random and
direct TopoLB baselines, determinism (including across engine process
pools), and the spec-grammar entry points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MappingError, TopologyError
from repro.mapping import HierarchicalMapper, RandomMapper, TopoLB
from repro.taskgraph import mesh2d_pattern, random_taskgraph
from repro.topology import GroupedTopology, Mesh, Torus, coarsen_machine


# --------------------------------------------------------------------------
# GroupedTopology / coarsen_machine
# --------------------------------------------------------------------------
class TestGroupedTopology:
    def test_representative_distances_are_parent_distances(self):
        parent = Torus((4, 4))
        groups = np.arange(16) // 2
        coarse = GroupedTopology(parent, groups)
        reps = coarse.representatives
        want = parent.distance_matrix()[np.ix_(reps, reps)]
        assert np.array_equal(coarse.distance_matrix(), want)
        for node in range(coarse.num_nodes):
            assert np.array_equal(coarse.distance_row(node), want[node])

    def test_route_raises_metric_only(self):
        coarse = GroupedTopology(Torus((4, 4)), np.arange(16) // 2)
        with pytest.raises(TopologyError, match="metric-only"):
            coarse.route(0, 1)

    def test_member_lists_partition_the_parent(self):
        groups = np.array([0, 1, 0, 2, 1, 2, 0, 1])
        coarse = GroupedTopology(Torus((8,)), groups)
        members = coarse.member_lists()
        seen = np.sort(np.concatenate(members))
        assert np.array_equal(seen, np.arange(8))
        for gid, m in enumerate(members):
            assert np.array_equal(np.sort(m), m)  # ascending
            assert np.all(groups[m] == gid)

    def test_invalid_groups_rejected(self):
        parent = Torus((4,))
        with pytest.raises(TopologyError):
            GroupedTopology(parent, np.array([0, 2, 2, 2]))  # id 1 empty
        with pytest.raises(TopologyError):
            GroupedTopology(parent, np.array([0, 0]))  # wrong shape


class TestCoarsenMachine:
    def test_grid_halves_largest_extent(self):
        topo = Torus((4, 8))
        coarse, groups, new_shape = coarsen_machine(topo)
        assert new_shape == (4, 4)
        assert coarse.num_nodes == 16
        # Groups pair neighbors along the halved axis: same row, cols 2k/2k+1.
        coords = np.stack(np.unravel_index(np.arange(32), (4, 8)), axis=1)
        for g in range(16):
            a, b = np.flatnonzero(groups == g)
            assert coords[a][0] == coords[b][0]
            assert coords[b][1] == coords[a][1] + 1

    def test_virtual_shape_threads_through_levels(self):
        topo = Torus((4, 4))
        shape = None
        level, p = topo, 16
        while p > 2:
            level, _, shape = coarsen_machine(level, shape=shape)
            assert level.num_nodes < p
            p = level.num_nodes
        assert p == 2

    def test_single_node_machine_refused(self):
        with pytest.raises(TopologyError):
            coarsen_machine(Torus((1,)))


# --------------------------------------------------------------------------
# HierarchicalMapper properties
# --------------------------------------------------------------------------
def _mean_random_hop_bytes(graph, topo, seeds=(0, 1, 2)):
    return float(np.mean(
        [RandomMapper(seed=s).map(graph, topo).hop_bytes for s in seeds]
    ))


class TestHierarchicalProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_never_worse_than_random(self, seed):
        rng = np.random.default_rng(seed)
        r, c = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        graph = mesh2d_pattern(r, c, message_bytes=64)
        topo = (Torus if seed % 2 else Mesh)((r, c))
        ml = HierarchicalMapper(stop=max(4, (r * c) // 4), seed=seed).map(graph, topo)
        assert ml.hop_bytes <= _mean_random_hop_bytes(graph, topo) + 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_bounded_factor_vs_direct_topolb(self, seed):
        rng = np.random.default_rng(seed)
        r, c = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        graph = mesh2d_pattern(r, c, message_bytes=64)
        topo = (Torus if seed % 2 else Mesh)((r, c))
        ml = HierarchicalMapper(stop=max(4, (r * c) // 4), seed=seed).map(graph, topo)
        direct = TopoLB().map(graph, topo)
        assert ml.hop_bytes <= 3.0 * direct.hop_bytes + 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_level_invariants_every_uncoarsening_step(self, seed):
        """At every recorded level: bounds and injectivity (within
        capacity) hold."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 80))
        graph = random_taskgraph(n, edge_prob=0.15, seed=seed)
        side = int(rng.integers(3, 7))
        topo = Torus((side, side))
        mapper = HierarchicalMapper(stop=4, seed=seed)
        mapper.map(graph, topo)
        assert mapper.last_level_assignments  # at least the coarsest level
        for ln, lp, assign in mapper.last_level_assignments:
            assert assign.shape == (ln,)
            assert assign.min() >= 0 and assign.max() < lp
            if ln <= lp:
                assert len(np.unique(assign)) == ln  # injective

    def test_partial_contraction_uses_whole_machine(self):
        """64 tasks on 61 processors: the partial final contraction must
        land on exactly 61 distinct processors, not a full halving."""
        graph = mesh2d_pattern(8, 8)
        topo = Torus((61,))
        mapping = HierarchicalMapper(stop=16, seed=0).map(graph, topo)
        assert len(np.unique(mapping.assignment)) == 61

    def test_underfull_run_is_injective(self):
        """Fewer tasks than processors on a pristine machine: TopoLB places
        the coarsest level and RefineTopoLB polishes every finer one, each
        one task per processor."""
        graph = mesh2d_pattern(3, 4)
        topo = Torus((8, 8))
        mapper = HierarchicalMapper(stop=16, seed=0)
        mapping = mapper.map(graph, topo)
        assert len(np.unique(mapping.assignment)) == graph.num_tasks
        assert [lp for _, lp, _ in mapper.last_level_assignments] == [16, 32, 64]
        for ln, lp, assign in mapper.last_level_assignments:
            assert ln == 12 and len(np.unique(assign)) == ln

    def test_many_to_one_groups_cover_machine(self):
        graph = random_taskgraph(100, edge_prob=0.05, seed=3)
        topo = Torus((4, 4))
        mapper = HierarchicalMapper(stop=4, seed=0)
        mapping = mapper.map(graph, topo)
        assert len(np.unique(mapping.assignment)) == 16
        groups = mapper.last_groups
        assert groups.shape == (100,)
        group_map = mapper.last_group_mapping
        assert group_map.is_bijection()
        # group mapping and expansion agree task by task
        assert np.array_equal(
            mapping.assignment, group_map.assignment[groups]
        )

    def test_bad_parameters_rejected(self):
        with pytest.raises(MappingError):
            HierarchicalMapper(levels=0)
        with pytest.raises(MappingError):
            HierarchicalMapper(refine_window=-1)
        with pytest.raises(MappingError):
            HierarchicalMapper(stop=0)
        with pytest.raises(MappingError):
            HierarchicalMapper(levels="many")


class TestDeterminism:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_repeat_runs_bit_identical(self, seed):
        graph = mesh2d_pattern(6, 6, message_bytes=32)
        topo = Torus((6, 6))
        a = HierarchicalMapper(stop=9, seed=seed).map(graph, topo).assignment
        b = HierarchicalMapper(stop=9, seed=seed).map(graph, topo).assignment
        assert np.array_equal(a, b)

    def test_kernels_bit_identical(self):
        graph = mesh2d_pattern(8, 8, message_bytes=128)
        topo = Torus((8, 8))
        vec = HierarchicalMapper(stop=16, kernel="vectorized").map(graph, topo)
        ref = HierarchicalMapper(stop=16, kernel="reference").map(graph, topo)
        assert np.array_equal(vec.assignment, ref.assignment)

    def test_engine_jobs1_vs_jobs2_identical(self, serve_in_pool):
        """The same spec batch maps identically in process and in the
        service's 2-worker pool (fresh caches per worker)."""
        from repro.engine import MappingEngine, MappingRequest

        requests = [
            MappingRequest(
                graph="mesh2d:8x8;bytes=64",
                topology="torus:8x8",
                mapper="multilevel:inner=topolb;stop=16",
                seed=s,
                validate="cheap",
            )
            for s in (0, 1)
        ]
        for request, outcome in zip(requests, serve_in_pool(requests)):
            direct = MappingEngine().run(request)
            assert outcome["ok"]
            assert outcome["payload"]["assignment"] == direct.assignment.tolist()
            assert outcome["payload"]["metrics"] == direct.metrics


# --------------------------------------------------------------------------
# Spec grammar
# --------------------------------------------------------------------------
class TestMultilevelSpecs:
    def test_enclosing_option_after_comma_is_rejected(self):
        from repro.engine import canonical_mapper_spec
        from repro.exceptions import SpecError

        with pytest.raises(SpecError, match="unknown option 'levels'"):
            canonical_mapper_spec("multilevel:inner=topolb,levels=auto")

    def test_comma_options_stay_with_inner_spec(self):
        from repro.engine import canonical_mapper_spec

        assert canonical_mapper_spec(
            "multilevel:inner=topolb,order=3;levels=2;stop=16"
        ) == "multilevel:inner=topolb,order=3;levels=2;stop=16"

    def test_multilevel_alias_builds(self):
        from repro.engine import mapper_from_spec

        mapper = mapper_from_spec("MultilevelLB", seed=0)
        assert isinstance(mapper, HierarchicalMapper)

    def test_engine_multilevel_validates_full_on_small_machine(self):
        from repro.engine import MappingEngine, MappingRequest

        result = MappingEngine().run(MappingRequest(
            graph="mesh2d:8x8;bytes=64",
            topology="torus:8x8",
            mapper="multilevel:inner=topolb;stop=16",
            seed=0,
            validate="full",
        ))
        assert sorted(result.assignment.tolist()) == list(range(64))
        assert result.metrics["hop_bytes"] > 0
