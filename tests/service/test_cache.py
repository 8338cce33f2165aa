"""Content-addressed cache keys and the ResultCache tiers."""

import json

import pytest

from repro.engine import MappingEngine, MappingRequest
from repro.exceptions import SpecError
from repro.service import ResultCache, request_cache_key, result_to_payload
from repro.taskgraph import mesh2d_pattern, save_taskgraph


def _req(**overrides):
    base = dict(graph="mesh2d:4x4;bytes=1024", topology="torus:4x4",
                mapper="topolb", seed=0)
    base.update(overrides)
    return MappingRequest(**base)


# ------------------------------------------------------------------ key laws
def test_key_is_stable_and_spelling_independent(tmp_path):
    assert request_cache_key(_req()) == request_cache_key(_req())

    # Different mapper spellings with the same canonical form share a key...
    assert (request_cache_key(_req(mapper="TOPOLB"))
            == request_cache_key(_req(mapper="topolb")))
    assert (request_cache_key(_req(mapper="refine:passes=2;base=topolb"))
            == request_cache_key(_req(mapper="refine:base=topolb;passes=2")))

    # ...and so do different spellings of the same graph content: the spec
    # string, the generated TaskGraph, and a file: round-trip of it.
    graph = mesh2d_pattern(4, 4, message_bytes=1024)
    path = tmp_path / "g.json"
    save_taskgraph(graph, path)
    spec_key = request_cache_key(_req())
    assert request_cache_key(_req(graph=graph)) == spec_key
    assert request_cache_key(_req(graph=f"file:{path}")) == spec_key


@pytest.mark.parametrize("overrides", [
    {"graph": "mesh2d:4x4;bytes=2048"},
    {"graph": "mesh2d:4x5;bytes=1024"},
    {"topology": "torus:8x8"},
    {"topology": "mesh:4x4"},
    {"mapper": "topocentlb"},
    {"mapper": "refine:base=topolb"},
    {"seed": 7},
    {"mapper": "topolb:order=3"},
    {"flow_metrics": True},
    {"validate": "full"},
    {"netsim": {"buffer_packets": 4}},
])
def test_key_changes_with_every_identity_field(overrides):
    assert request_cache_key(_req(**overrides)) != request_cache_key(_req())


def test_kernel_is_not_part_of_the_request():
    """No request names a kernel, so no kernel can split one result
    across two cache keys."""
    with pytest.raises(TypeError, match="kernel"):
        _req(kernel="reference")


def test_key_rejects_non_addressable_requests():
    class LiveMapper:
        def map(self, graph, topology):  # pragma: no cover
            raise AssertionError

    with pytest.raises(SpecError, match="live object"):
        request_cache_key(_req(mapper=LiveMapper()))


def test_equal_keys_mean_equal_payloads():
    """The promise the serving fast path rests on."""
    engine = MappingEngine()
    a = result_to_payload(engine.run(_req()))
    b = result_to_payload(engine.run(_req()))
    assert a["assignment"] == b["assignment"]
    assert a["metrics"] == b["metrics"]
    json.dumps(a)  # payload must be JSON-able as produced


# --------------------------------------------------------------- ResultCache
def test_lru_evicts_least_recently_used():
    cache = ResultCache(max_entries=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") == {"v": 1}  # refresh "a": "b" is now the LRU
    cache.put("c", {"v": 3})
    assert cache.get("b") is None
    assert cache.get("a") == {"v": 1}
    assert cache.get("c") == {"v": 3}
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["entries"] == 2
    assert stats["misses"] == 1


def test_disk_tier_round_trip_and_promotion(tmp_path):
    warm = ResultCache(max_entries=8, disk_dir=tmp_path)
    warm.put("k1", {"assignment": [0, 1], "metrics": {"hop_bytes": 3.0}})
    assert len(list(tmp_path.glob("*.json"))) == 1

    # A fresh instance over the same directory starts warm from disk.
    cold = ResultCache(max_entries=8, disk_dir=tmp_path)
    assert cold.get("k1") == {"assignment": [0, 1],
                              "metrics": {"hop_bytes": 3.0}}
    assert cold.stats()["disk_hits"] == 1
    # The read promoted into memory: the next hit is served without disk.
    assert cold.get("k1") is not None
    assert cold.stats()["disk_hits"] == 1
    assert cold.stats()["hits"] == 2


def test_disk_tier_ignores_torn_entries(tmp_path):
    cache = ResultCache(max_entries=4, disk_dir=tmp_path)
    (tmp_path / "bad.json").write_text("{truncated")
    assert cache.get("bad") is None
    assert cache.stats()["misses"] == 1


def test_memory_only_cache_never_touches_disk(tmp_path):
    cache = ResultCache(max_entries=4)
    cache.put("k", {"v": 1})
    assert list(tmp_path.iterdir()) == []
    assert cache.get("k") == {"v": 1}


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)
