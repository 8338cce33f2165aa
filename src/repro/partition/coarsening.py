"""Heavy-edge-matching coarsening for the multilevel partitioner.

Visiting vertices in random order, each unmatched vertex pairs with its
unmatched neighbor of heaviest communication volume; matched pairs contract
into one coarse vertex whose load is the sum and whose edges merge. Matching
the heaviest edges first hides as much communication volume as possible
inside coarse vertices — the property that makes the coarse partition a good
seed for the fine one.
"""

from __future__ import annotations

import numpy as np

from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng

__all__ = [
    "heavy_edge_matching",
    "contract",
    "pair_unmatched",
    "limit_pairs",
    "coarsen_toward",
]


def heavy_edge_matching(
    graph: TaskGraph, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = v's partner (or ``v`` if single)."""
    rng = as_rng(seed)
    n = graph.num_tasks
    # Plain lists: per-element NumPy indexing dominates this scalar loop.
    indptr, indices, weights = (a.tolist() for a in graph.csr_arrays())
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        best, best_w = v, -1.0
        for k in range(indptr[v], indptr[v + 1]):
            j, w = indices[k], weights[k]
            if match[j] < 0 and j != v and w > best_w:
                best, best_w = j, w
        match[v] = best
        match[best] = v
    return np.array(match, dtype=np.int64)


def contract(graph: TaskGraph, match: np.ndarray) -> tuple[TaskGraph, np.ndarray]:
    """Contract matched pairs; return (coarse graph, fine→coarse map).

    ``match`` is an involution (``match[match[v]] == v``), as
    :func:`heavy_edge_matching`, :func:`pair_unmatched` and
    :func:`limit_pairs` return it. Coarse ids are assigned by ascending
    first member, i.e. the rank of each pair's smaller endpoint.
    """
    match = np.asarray(match, dtype=np.int64)
    ids = np.arange(graph.num_tasks, dtype=np.int64)
    if not np.array_equal(match[match], ids):
        raise ValueError("contract: match must be an involution")
    _, fine2coarse = np.unique(np.minimum(ids, match), return_inverse=True)
    fine2coarse = fine2coarse.astype(np.int64)
    next_id = int(fine2coarse.max()) + 1

    loads = np.bincount(fine2coarse, weights=graph.vertex_weights, minlength=next_id)
    u, vv, w = graph.edge_arrays()
    cu, cv = fine2coarse[u], fine2coarse[vv]
    keep = cu != cv  # intra-pair edges disappear into the coarse vertex
    coarse = TaskGraph.from_arrays(next_id, cu[keep], cv[keep], w[keep], loads)
    return coarse, fine2coarse


def pair_unmatched(match: np.ndarray) -> np.ndarray:
    """Forcibly pair leftover self-matched vertices, consecutively by id.

    Heavy-edge matching leaves a vertex single when all its neighbors are
    already taken (stars), when it has no neighbors at all (singletons), or
    when ties starve it. Pairing the leftovers two-by-two guarantees every
    contraction shrinks the graph to ``ceil(n/2)`` vertices, which is what
    makes multilevel coarsening terminate on pathological graphs. One vertex
    stays single when the leftover count is odd.
    """
    match = np.asarray(match, dtype=np.int64).copy()
    singles = np.flatnonzero(match == np.arange(len(match)))
    for i in range(0, len(singles) - 1, 2):
        a, b = int(singles[i]), int(singles[i + 1])
        match[a] = b
        match[b] = a
    return match


def limit_pairs(
    graph: TaskGraph, match: np.ndarray, max_pairs: int
) -> np.ndarray:
    """Keep only the ``max_pairs`` heaviest matched pairs; unmatch the rest.

    A full contraction halves the graph, which overshoots when only a few
    merges are needed (e.g. 64 tasks onto 61 processors needs 3, not
    32). Ranking pairs by the weight of their connecting edge (0 for
    force-paired leftovers, ties to the smallest endpoint id) keeps the
    merges that hide the most communication volume and releases the rest, so
    a contraction can land on an exact target size.
    """
    match = np.asarray(match, dtype=np.int64).copy()
    n = len(match)
    ids = np.arange(n, dtype=np.int64)
    a = np.flatnonzero(match > ids)  # each pair once, keyed by smaller endpoint
    if len(a) <= max_pairs:
        return match
    if max_pairs <= 0:
        return ids
    b = match[a]
    weights = np.zeros(len(a), dtype=np.float64)
    pair_of = np.full(n, -1, dtype=np.int64)
    pair_of[a] = np.arange(len(a), dtype=np.int64)
    eu, ev, ew = graph.edge_arrays()
    sel = match[eu] == ev  # the edge connects a matched pair (eu < ev always)
    weights[pair_of[eu[sel]]] = ew[sel]
    order = np.lexsort((a, -weights))  # heaviest first, ties to smallest id
    drop = order[max_pairs:]
    match[a[drop]] = a[drop]
    match[b[drop]] = b[drop]
    return match


def coarsen_toward(
    graph: TaskGraph, target: int, seed: int | np.random.Generator | None = 0
) -> tuple[TaskGraph, np.ndarray]:
    """One forced coarsening level that never shrinks below ``target``.

    The result has exactly ``max(target, ceil(n/2))`` vertices: a full
    forced halving when the graph is still far above the target, a partial
    contraction of just the heaviest ``n - target`` pairs on the final
    approach. Returns ``(coarse graph, fine→coarse map)``.
    """
    target = max(1, int(target))
    match = pair_unmatched(heavy_edge_matching(graph, seed))
    match = limit_pairs(graph, match, graph.num_tasks - target)
    return contract(graph, match)
