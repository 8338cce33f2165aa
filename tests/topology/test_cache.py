"""Shared topology-table cache: keys, sharing, immutability, LRU, counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.mapping.estimation import (
    average_distance_vector,
)
from repro.topology import FatTree, Hypercube, MatrixTopology, Mesh, Torus
from repro.topology.cache import (
    MAX_ENTRIES,
    clear_topology_cache,
    shared_get,
    shared_put,
    topology_cache_info,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


class TestCacheKeys:
    def test_shape_defined_topologies_have_keys(self):
        assert Torus((4, 4)).cache_key() == ("Torus", (4, 4))
        assert Mesh((2, 3)).cache_key() == ("Mesh", (2, 3))
        assert Hypercube(3).cache_key() == ("Hypercube", 3)
        assert FatTree(2, 3).cache_key() == ("FatTree", 2, 3)

    def test_mesh_and_torus_keys_differ(self):
        # Same shape, different metric — must never share tables.
        assert Mesh((4, 4)).cache_key() != Torus((4, 4)).cache_key()

    def test_content_defined_topology_has_no_key(self):
        dist = Mesh((2, 2)).distance_matrix(np.int32)
        assert MatrixTopology(np.array(dist)).cache_key() is None


class TestSharing:
    def test_distance_matrix_shared_across_instances(self):
        a = Torus((4, 4)).distance_matrix(np.float64)
        b = Torus((4, 4)).distance_matrix(np.float64)
        assert a is b

    def test_distance_matrix_cached_per_dtype(self):
        topo = Torus((3, 3))
        m64 = topo.distance_matrix(np.float64)
        m32 = topo.distance_matrix(np.float32)
        assert m64 is not m32
        assert m64.dtype == np.float64 and m32.dtype == np.float32
        np.testing.assert_array_equal(m64, m32.astype(np.float64))
        # Repeat calls return the same objects, no recompute.
        assert topo.distance_matrix(np.float64) is m64
        assert topo.distance_matrix(np.float32) is m32

    def test_average_distance_vector_instance_cached_and_shared(self):
        t1, t2 = Torus((4, 4)), Torus((4, 4))
        v1 = average_distance_vector(t1)
        assert average_distance_vector(t1) is v1  # instance cache
        assert average_distance_vector(t2) is v1  # shared cache
        np.testing.assert_allclose(
            v1, t1.distance_matrix(np.float64).mean(axis=0))

    def test_matrix_topology_never_enters_shared_cache(self):
        dist = Mesh((2, 3)).distance_matrix(np.int32)
        topo = MatrixTopology(np.array(dist))
        before = topology_cache_info()["entries"]
        topo.distance_matrix(np.float64)
        average_distance_vector(topo)
        assert topology_cache_info()["entries"] == before
        # The per-instance caches still work.
        assert topo.distance_matrix(np.float64) is topo.distance_matrix(np.float64)


class TestImmutability:
    def test_cached_arrays_are_read_only(self):
        topo = Torus((3, 3))
        for arr in (
            topo.distance_matrix(np.float64),
            average_distance_vector(topo),
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


class TestCounters:
    def test_hit_miss_counters(self):
        prof = obs.enable()
        try:
            Torus((5, 5)).distance_matrix(np.float64)
            misses = prof.counters.get("topology.cache.misses", 0)
            assert misses >= 1
            assert prof.counters.get("topology.cache.hits", 0) == 0
            Torus((5, 5)).distance_matrix(np.float64)
            assert prof.counters["topology.cache.hits"] >= 1
            assert prof.counters["topology.cache.misses"] == misses
        finally:
            obs.disable()


class TestEviction:
    def test_lru_bounds_entries(self):
        for n in range(2, 2 + MAX_ENTRIES + 8):
            Mesh((n,)).distance_matrix(np.float64)
        info = topology_cache_info()
        assert info["entries"] <= MAX_ENTRIES
        # The newest shape survived; the oldest was evicted.
        keys = info["keys"]
        assert (("Mesh", (2 + MAX_ENTRIES + 7,)), "distance_matrix",
                np.dtype(np.float64).str) in keys

    def test_clear_returns_count(self):
        Torus((3, 3)).distance_matrix(np.float64)
        Mesh((2, 2)).distance_matrix(np.float64)
        assert clear_topology_cache() >= 2
        assert topology_cache_info() == {"entries": 0, "bytes": 0, "keys": []}

    def test_shared_put_get_roundtrip(self):
        arr = np.arange(4.0)
        stored = shared_put(("test-key",), arr)
        assert stored is arr and not arr.flags.writeable
        assert shared_get(("test-key",)) is arr
        assert shared_get(("absent",)) is None


class TestEvictionPressure:
    """Eviction must never change *values* — only who pays the recompute."""

    @staticmethod
    def _flood(count=MAX_ENTRIES + 4, start=50):
        # Distinct 1-D mesh shapes, one shared-cache entry each.
        for n in range(start, start + count):
            Mesh((n,)).distance_matrix(np.float64)

    def test_refetched_table_is_bit_identical(self):
        key = (Torus((4, 4)).cache_key(), "distance_matrix",
               np.dtype(np.float64).str)
        before = np.array(Torus((4, 4)).distance_matrix(np.float64))
        self._flood()
        assert key not in topology_cache_info()["keys"]  # evicted
        refetched = Torus((4, 4)).distance_matrix(np.float64)
        assert np.array_equal(refetched, before)
        assert refetched.dtype == before.dtype

    def test_refetched_table_is_still_read_only(self):
        Torus((4, 4)).distance_matrix(np.float64)
        self._flood()
        refetched = Torus((4, 4)).distance_matrix(np.float64)
        assert not refetched.flags.writeable
        with pytest.raises(ValueError):
            refetched[0] = 0

    def test_derived_vectors_survive_eviction_cycle(self):
        v_before = np.array(average_distance_vector(Torus((4, 4))))
        self._flood()
        np.testing.assert_array_equal(
            average_distance_vector(Torus((4, 4))), v_before)

    def test_lru_refresh_protects_hot_entry(self):
        hot = (Torus((4, 4)).cache_key(), "distance_matrix",
               np.dtype(np.float64).str)
        Torus((4, 4)).distance_matrix(np.float64)
        # Touch the hot entry between batches of cold fills: a get must
        # refresh recency, so the hot entry outlives both batches.
        self._flood(count=MAX_ENTRIES - 2, start=50)
        Torus((4, 4)).distance_matrix(np.float64)
        self._flood(count=MAX_ENTRIES - 2, start=200)
        assert hot in topology_cache_info()["keys"]

    def test_counters_stay_consistent_under_eviction(self):
        prof = obs.enable()
        try:
            lookups = 0
            # Fresh instance per call so every lookup goes to the shared
            # cache (the per-instance cache would otherwise absorb repeats).
            Torus((4, 4)).distance_matrix(np.float64); lookups += 1  # miss
            Torus((4, 4)).distance_matrix(np.float64); lookups += 1  # hit
            flood = MAX_ENTRIES + 4
            self._flood(count=flood); lookups += flood               # misses
            Torus((4, 4)).distance_matrix(np.float64); lookups += 1  # miss again
            hits = prof.counters.get("topology.cache.hits", 0)
            misses = prof.counters.get("topology.cache.misses", 0)
            assert hits + misses == lookups
            assert hits == 1
            assert misses == lookups - 1
            assert topology_cache_info()["entries"] <= MAX_ENTRIES
        finally:
            obs.disable()
