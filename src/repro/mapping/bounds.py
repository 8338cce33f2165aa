"""Lower bounds on hop-bytes — how close to optimal is a mapping?

The mapping problem is NP-complete, so exact optima are unavailable at
scale; these bounds let experiments report "TopoLB within x% of optimal"
instead of only "y% better than random".

Two bounds, both valid for *bijective* mappings:

* **trivial bound** — every task-graph edge joins distinct processors, so
  each byte crosses at least one link: ``HB >= total_bytes``.
* **degree-matching bound** — task ``t``'s neighbors occupy ``deg(t)``
  *distinct* processors, so the distances from ``t``'s processor to them are
  at least the ``deg(t)`` smallest nonzero distances available anywhere in
  the machine; matching t's heaviest edges with the smallest distances
  (a rearrangement-inequality argument) bounds HB(t) from below, and
  ``HB = (1/2) sum HB(t)`` does the rest.

For a 2D Jacobi pattern on a torus the degree-matching bound equals
``total_bytes`` exactly (four neighbors, four distance-1 slots), certifying
TopoLB's 1.0 hops-per-byte as optimal rather than merely good.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.metrics import ordered_sum
from repro.taskgraph.graph import TaskGraph
from repro.topology import cache
from repro.topology.base import Topology
from repro.topology.grid import GridTopology
from repro.topology.hypercube import Hypercube

__all__ = ["hop_bytes_lower_bound"]


def _vertex_transitive(topology: Topology) -> bool:
    """Whether every processor sees the same distance multiset.

    A torus is translation-invariant on every axis and a hypercube under
    XOR, so any processor's sorted distance row is every processor's.
    """
    return isinstance(topology, Hypercube) or (
        isinstance(topology, GridTopology) and topology.wraparound
    )


def _distance_profile(topology: Topology) -> np.ndarray:
    """Sorted nonzero distances from the best-connected processor.

    For the bound we may use, per task, the most favorable distance
    multiset any processor offers; taking the elementwise minimum over
    processors of the sorted profiles keeps the bound valid. On
    vertex-transitive machines all profiles coincide, so one row is the
    profile. Elsewhere the minimum is built one row at a time and memoized
    in the shared topology cache when the machine has a ``cache_key()``.
    """
    profile = np.sort(topology.distance_row(0))[1:].astype(np.float64)
    if _vertex_transitive(topology):
        return profile
    key = topology.cache_key()
    skey = ("hb_profile", key) if key is not None else None
    if skey is not None:
        cached = cache.shared_get(skey)
        if cached is not None:
            return cached
    for v in range(1, topology.num_nodes):
        np.minimum(profile, np.sort(topology.distance_row(v))[1:], out=profile)
    if skey is not None:
        cache.shared_put(skey, profile)
    return profile


def hop_bytes_lower_bound(graph: TaskGraph, topology: Topology) -> float:
    """A certified lower bound on hop-bytes over all bijective mappings.

    The bound depends only on the graph's content and the machine, so it is
    memoized in the shared topology cache under the graph's
    ``content_digest()`` when the machine has a ``cache_key()``; a repeated
    request for the same input skips the per-task loop.
    """
    if graph.num_tasks != topology.num_nodes or topology.num_nodes < 2:
        # Many-to-one mappings can hide bytes on-processor; only the trivial
        # zero bound is safe there.
        return 0.0
    key = topology.cache_key()
    if key is None:
        return _degree_matching_bound(graph, topology)
    skey = ("hb_bound", graph.content_digest(), key)
    cached = cache.shared_get(skey)
    if cached is not None:
        return float(cached[0])
    bound = _degree_matching_bound(graph, topology)
    cache.shared_put(skey, np.array([bound]))
    return bound


def _degree_matching_bound(graph: TaskGraph, topology: Topology) -> float:
    """The unmemoized bound of a bijective instance (the memo's oracle)."""
    profile = _distance_profile(topology)
    total = 0.0
    for t in range(graph.num_tasks):
        _, weights = graph.neighbor_slice(t)
        if len(weights) == 0:
            continue
        # Heaviest edges get the smallest available distances.
        w_sorted = np.sort(weights)[::-1]
        total += ordered_sum(w_sorted * profile[: len(w_sorted)])
    bound = total / 2.0
    return max(bound, graph.total_bytes)
