"""Process-level shared cache for derived topology tables.

Every experiment config builds a *fresh* topology object for the same
machine shape, and every mapper call needs the same ``O(p^2)`` derived
tables — the all-pairs distance matrix (per dtype) and the per-node
average-distance vector. This module shares those tables across topology
instances: a topology that can prove two instances are interchangeable
advertises a :meth:`~repro.topology.base.Topology.cache_key` (e.g.
``("Torus", (8, 8, 8))``), and derived tables are stored once per
``(cache_key, table, dtype)`` triple.

Shape-defined topologies (mesh, torus, hypercube, fat-tree) have keys;
content-defined ones (matrix, arbitrary graph, sub-topology) return ``None``
and simply keep their per-instance caches — a name like ``matrix(p=64)``
says nothing about the distances inside, so sharing would be unsound.

Cached arrays are **read-only** (``writeable=False``): they are handed to
many independent callers, and a mutation through one would silently corrupt
every other. Hit/miss traffic lands on the ``topology.cache.hits`` /
``topology.cache.misses`` counters when profiling is enabled
(``docs/OBSERVABILITY.md``); ``docs/PERFORMANCE.md`` covers the key design.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

import numpy as np

from repro import obs

__all__ = [
    "shared_get",
    "shared_put",
    "clear_topology_cache",
    "topology_cache_info",
    "MAX_ENTRIES",
]

#: Entry cap, evicting least-recently-used. The mappers on a mesh, a torus or
#: a grouped level of one read per-axis tables and cache no distance matrix,
#: so their entries are vectors (average distances, bound profiles) of
#: ``O(p)`` each. A matrix is cached only for machines without a per-axis
#: description (fat-tree, dragonfly, hypercube, graphs) or when a caller
#: asks for one (reference bodies, tests), and it still dominates: a
#: 4096-node int32 matrix is 64 MiB, so the cap bounds worst-case memory at
#: "a few dozen machines' worth".
MAX_ENTRIES = 32

_cache: OrderedDict[Hashable, np.ndarray] = OrderedDict()


def shared_get(key: Hashable) -> np.ndarray | None:
    """Look up a shared table; refreshes LRU order on hit."""
    value = _cache.get(key)
    if value is None:
        obs.count("topology.cache.misses")
        return None
    _cache.move_to_end(key)
    obs.count("topology.cache.hits")
    return value


def shared_put(key: Hashable, value: np.ndarray) -> np.ndarray:
    """Store a table under ``key`` (made read-only); returns the stored array."""
    value.flags.writeable = False
    _cache[key] = value
    _cache.move_to_end(key)
    while len(_cache) > MAX_ENTRIES:
        _cache.popitem(last=False)
    return value


def clear_topology_cache() -> int:
    """Drop every shared entry (tests, or to release memory); returns the count."""
    dropped = len(_cache)
    _cache.clear()
    return dropped


def topology_cache_info() -> dict:
    """Snapshot for diagnostics: entry count, total bytes, and the keys."""
    return {
        "entries": len(_cache),
        "bytes": int(sum(v.nbytes for v in _cache.values())),
        "keys": list(_cache.keys()),
    }
