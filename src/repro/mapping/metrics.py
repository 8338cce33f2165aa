"""Mapping-quality metrics: hop-bytes, hops-per-byte, link loads, dilation.

Hop-bytes (Section 3 of the paper) is the evaluation function every mapper
here minimizes::

    HB(Gt, Gp, P) = sum over edges e_ab of c_ab * d_p(P(a), P(b))

Each edge's distance comes from :meth:`~repro.topology.base.Topology.
pair_distances` — one distance per task-graph edge, never the ``p x p``
table — so the metrics cost the same on any machine size. That gather is
:func:`edge_distances`, and every hop-bytes sum is an :func:`ordered_sum`,
so a metric has the same bits on every host. Per-link loads additionally
resolve each task-graph edge onto the links of its deterministic route —
the quantity whose maximum drives contention.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import MappingError
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = [
    "edge_distances",
    "ordered_sum",
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


def edge_distances(
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(w, d)``: each task-graph edge's bytes and its hop distance under
    ``assignment``, in :meth:`~repro.taskgraph.graph.TaskGraph.edge_arrays`
    order. The one gather every metric reads."""
    arr = _as_assignment(graph, topology, assignment)
    u, v, w = graph.edge_arrays()
    return w, topology.pair_distances(arr[u], arr[v]).astype(np.float64)


def ordered_sum(x: np.ndarray) -> float:
    """``x[0] + x[1] + ...`` left to right, unlike a BLAS dot, whose order
    (and so whose last bits) the host's CPU picks."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def hop_bytes(graph: TaskGraph, topology: Topology, assignment: Sequence[int]) -> float:
    """Total hop-bytes of ``assignment`` (Section 3 metric)."""
    w, d = edge_distances(graph, topology, assignment)
    return ordered_sum(w * d)


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
    w, d = edge_distances(graph, topology, assignment)
    u, v, _ = graph.edge_arrays()
    out = np.zeros(graph.num_tasks, dtype=np.float64)
    contrib = w * d
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
    block = metrics_block(graph, topology, assignment)
    return {"max": block["max_dilation"], "mean": block["mean_dilation"],
            "weighted_mean": block["weighted_dilation"]}


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
    graph: TaskGraph, topology: Topology, assignment: Sequence[int]
) -> dict[str, float]:
    """The canonical per-mapping metrics block, from one distance gather.

    Bitwise identical to :func:`hop_bytes`, :func:`hops_per_byte` and
    :func:`load_imbalance` (the same gather and the same sum);
    :func:`dilation_stats` reads it.

    Keys: ``hop_bytes``, ``hops_per_byte``, ``load_imbalance``,
    ``max_dilation``, ``mean_dilation``, ``weighted_dilation``.
    """
    arr = _as_assignment(graph, topology, assignment)
    w, d = edge_distances(graph, topology, arr)
    hb = ordered_sum(w * d)
    # The byte-weighted mean dilation is hop-bytes per byte by definition.
    hpb = hops_ratio(hb, graph.total_bytes)
    return {
        "hop_bytes": hb,
        "hops_per_byte": hpb,
        "load_imbalance": load_imbalance(graph, topology, arr),
        "max_dilation": float(d.max(initial=0.0)),
        "mean_dilation": float(d.mean()) if len(d) else 0.0,
        "weighted_dilation": hpb,
    }
