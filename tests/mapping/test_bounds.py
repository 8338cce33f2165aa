"""Tests for the hop-byte lower bounds."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.mapping import (
    IdentityMapper,
    RandomMapper,
    TopoLB,
    hop_bytes_lower_bound,
)
from repro.mapping.bounds import _degree_matching_bound, _distance_profile
from repro.taskgraph import TaskGraph, mesh2d_pattern, mesh3d_pattern, random_taskgraph
from repro.topology import Hypercube, Mesh, Torus
from repro.topology.aggregate import GroupedTopology
from repro.topology.cache import clear_topology_cache


class TestLowerBound:
    def test_stencil_bound_is_tight(self):
        """4-neighbor pattern on a degree-4 torus: bound == total bytes, and
        the identity mapping attains it — optimality certified."""
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        bound = hop_bytes_lower_bound(g, topo)
        assert bound == pytest.approx(g.total_bytes)
        mapping = IdentityMapper().map(g, topo)
        assert mapping.hop_bytes / bound == pytest.approx(1.0)

    def test_topolb_certified_optimal(self):
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        gap = TopoLB().map(g, topo).hop_bytes / hop_bytes_lower_bound(g, topo)
        assert gap == pytest.approx(1.0)

    def test_bound_exceeds_total_bytes_for_high_degree(self):
        """A task with more partners than machine degree must reach past
        distance 1, so the bound strictly exceeds total bytes."""
        g = TaskGraph(9, [(0, j, 10.0) for j in range(1, 9)])
        topo = Torus((3, 3))  # degree 4 < 8 partners
        assert hop_bytes_lower_bound(g, topo) > g.total_bytes

    def test_heavy_edges_matched_to_short_distances(self):
        # Star with one giant edge: the bound must charge the giant edge
        # distance 1, not the average.
        g = TaskGraph(9, [(0, 1, 1e6)] + [(0, j, 1.0) for j in range(2, 9)])
        topo = Torus((3, 3))
        bound = hop_bytes_lower_bound(g, topo)
        assert bound < 1.1e6  # ~1e6*1 + small change, NOT 2e6

    def test_edgeless(self):
        g = TaskGraph(4)
        assert hop_bytes_lower_bound(g, Mesh((2, 2))) == 0.0

    def test_size_mismatch_returns_trivial(self):
        g = mesh2d_pattern(2, 2)
        assert hop_bytes_lower_bound(g, Mesh((3, 3))) == 0.0

    def test_gap_of_random_large(self):
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        gap = (RandomMapper(seed=0).map(g, topo).hop_bytes
               / hop_bytes_lower_bound(g, topo))
        assert gap > 3.0


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_property_bound_below_every_bijection(seed):
    """Soundness: the bound never exceeds an actual bijective mapping's HB."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    g = random_taskgraph(n, edge_prob=0.4, seed=seed)
    topo = Torus((n,)) if seed % 2 else Mesh((n,))
    bound = hop_bytes_lower_bound(g, topo)
    for s in range(3):
        mapping = RandomMapper(seed=seed + s).map(g, topo)
        assert bound <= mapping.hop_bytes + 1e-9


class TestBoundMemo:
    """The bound is memoized per (graph content, machine shape)."""

    def setup_method(self):
        clear_topology_cache()

    def teardown_method(self):
        clear_topology_cache()

    @staticmethod
    def _hits(prof) -> int:
        return prof.counters.get("topology.cache.hits", 0)

    @pytest.mark.parametrize("make", [
        lambda: Torus((4, 4)), lambda: Mesh((3, 4)), lambda: Hypercube(4),
    ], ids=["torus", "mesh", "hypercube"])
    def test_second_call_is_a_hit_with_the_unmemoized_value(self, make):
        topo = make()
        g = random_taskgraph(topo.num_nodes, edge_prob=0.5, seed=2)
        with obs.profiled() as prof:
            first = hop_bytes_lower_bound(g, topo)
            hits = self._hits(prof)
            # A fresh machine object and a rebuilt graph of equal content.
            u, v, w = g.edge_arrays()
            again = hop_bytes_lower_bound(
                TaskGraph.from_arrays(g.num_tasks, u, v, w, g.vertex_weights),
                make())
            assert self._hits(prof) == hits + 1
        assert first.hex() == again.hex()
        assert first.hex() == _degree_matching_bound(g, topo).hex()

    def test_different_content_digest_misses(self):
        topo = Torus((4, 4))
        g = random_taskgraph(16, edge_prob=0.5, seed=2)
        u, v, w = g.edge_arrays()
        heavier = TaskGraph.from_arrays(16, u, v, w * 3.0, g.vertex_weights)
        assert heavier.content_digest() != g.content_digest()
        hop_bytes_lower_bound(g, topo)
        with obs.profiled() as prof:
            bound = hop_bytes_lower_bound(heavier, topo)
            assert self._hits(prof) == 0
        assert bound == _degree_matching_bound(heavier, topo)

    def test_clear_topology_cache_drops_the_entry(self):
        topo = Torus((4, 4))
        g = random_taskgraph(16, edge_prob=0.5, seed=2)
        hop_bytes_lower_bound(g, topo)
        clear_topology_cache()
        with obs.profiled() as prof:
            hop_bytes_lower_bound(g, topo)
            assert self._hits(prof) == 0
            assert prof.counters.get("topology.cache.misses", 0) == 1

    def test_non_bijective_request_never_hashes_the_graph(self, monkeypatch):
        def spy(self):
            raise AssertionError("content_digest called on a non-bijective "
                                 "request")

        monkeypatch.setattr(TaskGraph, "content_digest", spy)
        assert hop_bytes_lower_bound(mesh2d_pattern(4, 4), Torus((4, 8))) \
            == 0.0
        assert hop_bytes_lower_bound(mesh2d_pattern(4, 8), Torus((4, 4))) \
            == 0.0


def _min_over_rows_profile(topo) -> np.ndarray:
    """The bound's definition: elementwise min of every sorted distance row."""
    rows = np.sort(topo.distance_matrix(np.float64), axis=1)[:, 1:]
    return rows.min(axis=0)


class TestDistanceProfile:
    @pytest.mark.parametrize("topo", [
        Torus(shape) for shape in (
            (2,), (5,), (8,), (3, 4), (5, 5), (4, 6), (3, 4, 5), (2, 2, 2), (4, 4, 3),
        )
    ] + [Hypercube(dim) for dim in range(1, 7)], ids=lambda t: t.name)
    def test_vertex_transitive_one_row_equals_min_over_rows(self, topo):
        profile = _distance_profile(topo)
        assert profile.dtype == np.float64
        assert profile.tobytes() == _min_over_rows_profile(topo).tobytes()

    @pytest.mark.parametrize("make", [
        lambda: Mesh((3, 4)),
        lambda: GroupedTopology(Torus((4, 4)), np.arange(16) // 3 % 5),
    ], ids=["mesh", "grouped"])
    def test_memoized_profile_hits_shared_cache(self, make):
        """Non-transitive machines keep the min-over-rows profile and memoize
        it: a second bound on a fresh instance of the same shape is a hit."""
        clear_topology_cache()
        topo = make()
        g = random_taskgraph(topo.num_nodes, edge_prob=0.5, seed=1)
        prof = obs.enable()
        try:
            first = hop_bytes_lower_bound(g, topo)
            hits = prof.counters.get("topology.cache.hits", 0)
            assert hop_bytes_lower_bound(g, make()) == first
            assert prof.counters.get("topology.cache.hits", 0) == hits + 1
        finally:
            obs.disable()
            clear_topology_cache()
        assert _distance_profile(topo).tobytes() == (
            _min_over_rows_profile(topo).tobytes()
        )

    def test_torus_bound_allocates_no_distance_table(self):
        """torus:16x16x16 has 4096 processors; the full profile table alone
        would be 128 MiB. The one-row profile keeps the bound under 1 MiB."""
        topo = Torus((16, 16, 16))
        g = mesh3d_pattern(16, 16, 16)
        tracemalloc.start()
        try:
            bound = hop_bytes_lower_bound(g, topo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bound == pytest.approx(g.total_bytes)
        assert peak < 1 << 20
