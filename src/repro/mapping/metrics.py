"""Mapping-quality metrics: hop-bytes, hops-per-byte, link loads, dilation.

Hop-bytes (Section 3 of the paper) is the evaluation function every mapper
here minimizes::

    HB(Gt, Gp, P) = sum over edges e_ab of c_ab * d_p(P(a), P(b))

Each edge's distance comes from :meth:`~repro.topology.base.Topology.
pair_distances` — one distance per task-graph edge, never the ``p x p``
table — so the metrics cost the same on any machine size. Per-link loads
additionally resolve each task-graph edge onto the links of its
deterministic route — the quantity whose maximum drives contention.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import MappingError
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

if TYPE_CHECKING:  # circular at runtime: context imports metrics helpers
    from repro.mapping.context import MappingContext

__all__ = [
    "hop_bytes",
    "hops_per_byte",
    "hops_ratio",
    "per_task_hop_bytes",
    "per_link_loads",
    "dilation_stats",
    "processor_loads",
    "load_imbalance",
    "metrics_block",
]

def _as_assignment(graph: TaskGraph, topology: Topology, assignment: Sequence[int]) -> np.ndarray:
    arr = np.asarray(assignment, dtype=np.int64)
    if arr.shape != (graph.num_tasks,):
        raise MappingError(
            f"assignment must have shape ({graph.num_tasks},), got {arr.shape}"
        )
    if len(arr) and (arr.min() < 0 or arr.max() >= topology.num_nodes):
        raise MappingError("assignment references processors outside the topology")
    return arr


def hop_bytes(graph: TaskGraph, topology: Topology, assignment: Sequence[int]) -> float:
    """Total hop-bytes of ``assignment`` (Section 3 metric)."""
    arr = _as_assignment(graph, topology, assignment)
    u, v, w = graph.edge_arrays()
    if len(w) == 0:
        return 0.0
    dist = topology.pair_distances(arr[u], arr[v]).astype(np.float64)
    return float(np.dot(w, dist))


def hops_ratio(hop_bytes_value: float, total_bytes: float) -> float:
    """``hop_bytes / total_bytes`` with the zero-traffic convention.

    The *single* definition of the guard: a graph that communicates nothing
    travels zero hops per byte. Every consumer (:func:`hops_per_byte`,
    :func:`metrics_block`, :attr:`repro.mapping.base.Mapping.hops_per_byte`)
    divides through this helper so the semantics cannot drift.
    """
    if total_bytes == 0:
        return 0.0
    return hop_bytes_value / total_bytes


def hops_per_byte(graph: TaskGraph, topology: Topology, assignment: Sequence[int]) -> float:
    """Average number of links each byte crosses: hop-bytes / total bytes."""
    return hops_ratio(
        hop_bytes(graph, topology, assignment), graph.total_bytes
    )


def per_task_hop_bytes(
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> np.ndarray:
    """HB(t) per task; ``sum / 2 == hop_bytes`` (the paper's additivity identity)."""
    arr = _as_assignment(graph, topology, assignment)
    u, v, w = graph.edge_arrays()
    out = np.zeros(graph.num_tasks, dtype=np.float64)
    if len(w):
        contrib = w * topology.pair_distances(arr[u], arr[v]).astype(np.float64)
        np.add.at(out, u, contrib)
        np.add.at(out, v, contrib)
    return out


def per_link_loads(
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> dict[tuple[int, int], float]:
    """Bytes crossing each *directed* link under deterministic routing.

    Requires a route-capable (link-graph) machine: links are edges of
    ``topology.link_graph()``, so on an indirect network (fat-tree,
    dragonfly) the keys include switch-level links. Intra-processor edges
    load no links. The max over this dict is the contention bottleneck the
    paper's mapping strategy relieves.
    """
    arr = _as_assignment(graph, topology, assignment)
    loads: dict[tuple[int, int], float] = {}
    for a, b, w in graph.edges():
        pa, pb = int(arr[a]), int(arr[b])
        if pa == pb:
            continue
        # Traffic flows both ways on an undirected task edge; charge half
        # the volume along each direction's route.
        for src, dst, vol in ((pa, pb, w / 2.0), (pb, pa, w / 2.0)):
            for link in topology.route_links(src, dst):
                loads[link] = loads.get(link, 0.0) + vol
    return loads


def dilation_stats(
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> dict[str, float]:
    """Edge-dilation summary: max / mean / byte-weighted mean hop distance."""
    arr = _as_assignment(graph, topology, assignment)
    u, v, w = graph.edge_arrays()
    if len(w) == 0:
        return {"max": 0.0, "mean": 0.0, "weighted_mean": 0.0}
    dist = topology.pair_distances(arr[u], arr[v]).astype(np.float64)
    return {
        "max": float(dist.max()),
        "mean": float(dist.mean()),
        "weighted_mean": float(np.dot(w, dist) / w.sum()) if w.sum() else 0.0,
    }


def processor_loads(
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> np.ndarray:
    """Computation load per processor (sum of hosted task weights)."""
    arr = _as_assignment(graph, topology, assignment)
    return np.bincount(arr, weights=graph.vertex_weights, minlength=topology.num_nodes)


def load_imbalance(
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> float:
    """Makespan ratio ``max_load / mean_load`` (1.0 is perfectly balanced)."""
    loads = processor_loads(graph, topology, assignment)
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def metrics_block(
    graph: TaskGraph,
    topology: Topology,
    assignment: Sequence[int],
    *,
    ctx: MappingContext | None = None,
) -> dict[str, float]:
    """The canonical per-mapping metrics block, from one distance gather.

    Every consumer that used to call :func:`hop_bytes`,
    :func:`hops_per_byte`, :func:`load_imbalance`, and
    :func:`dilation_stats` separately paid one edge-distance gather per
    metric; this computes the gather once and derives all of them with the
    same floating-point expressions, so values are bitwise identical to the
    individual functions.

    Keys: ``hop_bytes``, ``hops_per_byte``, ``load_imbalance``,
    ``max_dilation``, ``mean_dilation``, ``weighted_dilation``.
    """
    if ctx is None:
        from repro.mapping.context import context_for

        ctx = context_for(graph, topology)
    arr = _as_assignment(graph, topology, assignment)
    u, v, w = ctx.edge_arrays()
    total = graph.total_bytes
    if len(w) == 0:
        hb = 0.0
        dil = {"max": 0.0, "mean": 0.0, "weighted_mean": 0.0}
    else:
        dist = topology.pair_distances(arr[u], arr[v]).astype(np.float64)
        hb = float(np.dot(w, dist))
        dil = {
            "max": float(dist.max()),
            "mean": float(dist.mean()),
            "weighted_mean": float(np.dot(w, dist) / w.sum()) if w.sum() else 0.0,
        }
    return {
        "hop_bytes": hb,
        "hops_per_byte": hops_ratio(hb, total),
        "load_imbalance": load_imbalance(graph, topology, arr),
        "max_dilation": dil["max"],
        "mean_dilation": dil["mean"],
        "weighted_dilation": dil["weighted_mean"],
    }
