"""FM-style k-way boundary refinement.

After projecting a coarse partition down a level, boundary vertices may sit
better in a neighboring group. Each pass scans the boundary in random order
and greedily applies the best strictly-cut-reducing move that keeps every
group within the load ceiling and non-empty. Passes repeat until quiescent
or the pass budget runs out — the standard greedy simplification of
Fiduccia–Mattheyses used by multilevel partitioners.

Each ``refine_kway`` pass is compiled or reference: it runs
``partition_refine_pass`` (:mod:`repro.mapping._native`), or, without a C
compiler or with ``REPRO_NO_NATIVE`` set, its reference body
:func:`_refine_pass_lists`, a loop over :func:`csr_lists`. Python keeps
the pass count, the early stop and the ``rng.permutation`` draw of each
pass. ``rebalance_kway`` is only such a
loop: it costs about 2 ms per LeanMD request, and it depends on NumPy's
unstable heavy-first ``argsort``.
"""

from __future__ import annotations

import numpy as np

from repro.partition.base import csr_lists
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng

__all__ = ["refine_kway", "rebalance_kway"]


def rebalance_kway(
    graph: TaskGraph,
    groups: np.ndarray,
    k: int,
    max_load: float,
    max_moves: int | None = None,
) -> np.ndarray:
    """Push overloaded groups under ``max_load`` with minimum cut damage.

    Repeatedly takes the most-loaded group above the ceiling and moves out
    the vertex whose departure costs the least cut bytes, into the
    receiving group (preferring communication-adjacent ones) with the most
    headroom. Vertices heavier than the ceiling itself are unmovable-by-
    balance and are skipped; the loop is bounded by ``max_moves`` (default
    ``4 n``) so pathological inputs terminate.
    """
    indptr, indices, edge_w, weights = csr_lists(graph)
    loads = np.bincount(groups, weights=graph.vertex_weights, minlength=k).tolist()
    counts = np.bincount(groups, minlength=k).tolist()
    # ``groups`` serves the vectorized member scan, ``glist`` the scalar loop.
    glist = groups.tolist()
    if max_moves is None:
        max_moves = 4 * graph.num_tasks

    for _ in range(max_moves):
        src = int(np.argmax(loads))
        if loads[src] <= max_load or counts[src] <= 1:
            break
        members = np.flatnonzero(groups == src)
        order = members[np.argsort(graph.vertex_weights[members])[::-1]]  # heavy first
        lightest = int(np.argmin(loads))
        best: tuple[float, int, int] | None = None  # (cut_delta, vertex, dst)
        for v in order.tolist():
            w = weights[v]
            conn: dict[int, float] = {}
            for j in range(indptr[v], indptr[v + 1]):
                g = glist[indices[j]]
                conn[g] = conn.get(g, 0.0) + edge_w[j]
            internal = conn.get(src, 0.0)
            # Candidate destinations: adjacent groups first, then the lightest.
            candidates = [g for g in conn if g != src]
            if lightest != src:
                candidates.append(lightest)
            for g in candidates:
                if loads[g] + w > max_load and loads[g] + w >= loads[src]:
                    continue  # move would not even help balance
                cut_delta = internal - conn.get(g, 0.0)
                if best is None or cut_delta < best[0]:
                    best = (cut_delta, v, g)
            if best is not None and best[0] <= 0:
                break  # a free (or cut-improving) balance move exists
        if best is None:
            break
        _, v, dst = best
        groups[v] = glist[v] = dst
        loads[src] -= weights[v]
        loads[dst] += weights[v]
        counts[src] -= 1
        counts[dst] += 1
    return groups


def refine_kway(
    graph: TaskGraph,
    groups: np.ndarray,
    k: int,
    max_load: float,
    passes: int = 4,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Refine ``groups`` in place toward lower cut bytes; returns it.

    ``max_load`` is the hard per-group load ceiling (typically
    ``tolerance * total / k``); moves that would breach it, or would empty
    the source group, are rejected. A gain tie goes to the neighbouring
    group seen first in ``v``'s adjacency order.
    """
    from repro.mapping import _native  # repro.mapping imports this package

    rng = as_rng(seed)
    n = graph.num_tasks
    loads = np.bincount(groups, weights=graph.vertex_weights, minlength=k)
    counts = np.bincount(groups, minlength=k).astype(np.int64)
    native = _native.kernels_or_fallback()
    if native is not None:
        work = np.ascontiguousarray(groups, dtype=np.int64)
        indptr, indices, edge_w = graph.csr_arrays()
        for _pass in range(passes):
            if not native.partition_refine_pass(
                    indptr, indices, edge_w, graph.vertex_weights, work,
                    loads, counts, rng.permutation(n), float(max_load)):
                break
        groups[:] = work
        return groups

    csr = csr_lists(graph)
    loads, counts, glist = loads.tolist(), counts.tolist(), groups.tolist()
    for _pass in range(passes):
        if not _refine_pass_lists(csr, glist, loads, counts,
                                  rng.permutation(n).tolist(), max_load):
            break
    groups[:] = glist
    return groups


def _refine_pass_lists(csr: tuple, groups: list[int], loads: list[float],
                       counts: list[int], perm: list[int],
                       max_load: float) -> bool:
    """One FM pass over ``perm``, in place on the lists ``groups``,
    ``loads`` and ``counts``; True if a vertex moved — the reference body
    of ``partition_refine_pass``."""
    indptr, indices, edge_w, weights = csr
    moved = False
    for v in perm:
        src = groups[v]
        lo, hi = indptr[v], indptr[v + 1]
        if counts[src] <= 1 or lo == hi:
            continue
        conn: dict[int, float] = {}
        for j in range(lo, hi):
            g = groups[indices[j]]
            conn[g] = conn.get(g, 0.0) + edge_w[j]
        internal = conn.get(src, 0.0)
        w = weights[v]
        best_g, best_gain = -1, 0.0
        for g, c in conn.items():
            if g == src:
                continue
            gain = c - internal
            if gain > best_gain and loads[g] + w <= max_load:
                best_g, best_gain = g, gain
        if best_g >= 0:
            groups[v] = best_g
            loads[src] -= w
            loads[best_g] += w
            counts[src] -= 1
            counts[best_g] += 1
            moved = True
    return moved
