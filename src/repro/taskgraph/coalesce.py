"""Quotient (coalesced) task graphs.

Phase 1 of the paper's two-phase approach partitions the ``n`` compute
objects into ``p`` groups; the mapper then works on the *coalesced* graph:
one vertex per group (weight = summed load), one edge per communicating group
pair (weight = summed inter-group bytes). Intra-group bytes vanish — they
become free on-processor communication.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import TaskGraphError
from repro.taskgraph.graph import TaskGraph

__all__ = ["coalesce"]


def coalesce(graph: TaskGraph, groups: Sequence[int], num_groups: int | None = None) -> TaskGraph:
    """Contract ``graph`` along the group assignment ``groups``.

    Parameters
    ----------
    graph:
        The original task graph on ``n`` tasks.
    groups:
        Length-``n`` array; ``groups[t]`` is the group id of task ``t``.
        Group ids must cover ``0..num_groups-1`` (every group non-empty).
    num_groups:
        Number of groups ``p``; inferred as ``max(groups)+1`` when omitted.

    Returns the quotient :class:`TaskGraph` on ``num_groups`` vertices.
    """
    g = np.asarray(groups, dtype=np.int64)
    if g.shape != (graph.num_tasks,):
        raise TaskGraphError(
            f"groups must have shape ({graph.num_tasks},), got {g.shape}"
        )
    if num_groups is None:
        num_groups = int(g.max()) + 1 if len(g) else 0
    if g.min(initial=0) < 0 or g.max(initial=-1) >= num_groups:
        raise TaskGraphError("group ids out of range")
    counts = np.bincount(g, minlength=num_groups)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise TaskGraphError(f"group {empty} is empty; mapper needs one group per processor")

    # Group loads: scatter-add of task loads.
    loads = np.bincount(g, weights=graph.vertex_weights, minlength=num_groups)

    # Inter-group edge volumes: relabel endpoints, drop intra-group, merge.
    u, v, w = graph.edge_arrays()
    gu, gv = g[u], g[v]
    cross = gu != gv
    return TaskGraph.from_arrays(num_groups, gu[cross], gv[cross], w[cross],
                                 loads)
