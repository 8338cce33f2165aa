"""Phase-1 partitioner equivalence: the CSR-list loops against their oracles.

``grow_bisection``, ``_pseudo_peripheral``, ``refine_kway`` and
``rebalance_kway`` walk plain Python lists built once from
``TaskGraph.csr_arrays()``. The oracles below are the per-vertex-accessor
versions they replaced, kept verbatim as test-only references: same visit
order, same ``rng`` draws, same float operations. Every production result
must be array-equal to its oracle's, including on disconnected graphs,
isolated and zero-weight vertices, and vertices heavier than the load
ceiling.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.partition.base import csr_lists
from repro.partition.coarsening import contract, heavy_edge_matching
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.recursive_bisection import RecursiveBisectionPartitioner, grow_bisection
from repro.partition.refinement import rebalance_kway, refine_kway
from repro.taskgraph import TaskGraph, leanmd_taskgraph, random_taskgraph
from repro.utils.rng import as_rng


# ------------------------------------------------------------------ oracles
def _pseudo_peripheral_oracle(graph, subset, in_subset, rng):
    start = int(subset[rng.integers(0, len(subset))])
    for _ in range(2):
        seen = {start}
        frontier = [start]
        last = start
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for nbr in graph.neighbors(v):
                    if in_subset[nbr] and nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            if nxt:
                last = nxt[-1]
            frontier = nxt
        start = last
    return start


def _grow_bisection_oracle(graph, subset, k1, k2, rng):
    weights = graph.vertex_weights
    total = float(weights[subset].sum())
    target = total * k1 / (k1 + k2)

    in_subset = np.zeros(graph.num_tasks, dtype=bool)
    in_subset[subset] = True
    local_index = {int(t): i for i, t in enumerate(subset)}

    picked = np.zeros(len(subset), dtype=bool)
    seed = _pseudo_peripheral_oracle(graph, subset, in_subset, rng)
    queue: deque[int] = deque([seed])
    queued = {seed}
    acc_weight = 0.0
    count = 0
    max_count = len(subset) - k2

    while count < max_count:
        if not queue:
            remaining = subset[~picked]
            nxt = int(remaining[0])
            queue.append(nxt)
            queued.add(nxt)
        v = queue.popleft()
        i = local_index[v]
        if picked[i]:
            continue
        if count >= k1 and acc_weight + 0.5 * float(weights[v]) >= target:
            break
        picked[i] = True
        acc_weight += float(weights[v])
        count += 1
        for nbr in graph.neighbors(v):
            if in_subset[nbr] and nbr not in queued and not picked[local_index[nbr]]:
                queue.append(nbr)
                queued.add(nbr)

    if count < k1:
        for i in np.flatnonzero(~picked):
            picked[i] = True
            count += 1
            if count >= k1:
                break
    return picked


def _recursive_bisection_oracle(graph, k, seed):
    rng = as_rng(seed)
    groups = np.zeros(graph.num_tasks, dtype=np.int64)

    def split(subset, k, base):
        if k == 1:
            groups[subset] = base
            return
        k1 = k // 2
        side_a = _grow_bisection_oracle(graph, subset, k1, k - k1, rng)
        split(subset[side_a], k1, base)
        split(subset[~side_a], k - k1, base + k1)

    split(np.arange(graph.num_tasks), k, 0)
    return groups


def _rebalance_kway_oracle(graph, groups, k, max_load, max_moves=None):
    loads = np.bincount(groups, weights=graph.vertex_weights, minlength=k).astype(np.float64)
    counts = np.bincount(groups, minlength=k)
    weights = graph.vertex_weights
    if max_moves is None:
        max_moves = 4 * graph.num_tasks

    for _ in range(max_moves):
        src = int(np.argmax(loads))
        if loads[src] <= max_load:
            break
        members = np.flatnonzero(groups == src)
        if counts[src] <= 1:
            break
        best = None
        order = members[np.argsort(weights[members])[::-1]]
        for v in order:
            v = int(v)
            w = float(weights[v])
            nbrs, wts = graph.neighbor_slice(v)
            conn: dict[int, float] = {}
            for j, c in zip(nbrs, wts):
                g = int(groups[j])
                conn[g] = conn.get(g, 0.0) + float(c)
            internal = conn.get(src, 0.0)
            candidates = [g for g in conn if g != src]
            lightest = int(np.argmin(loads))
            if lightest != src:
                candidates.append(lightest)
            for g in candidates:
                if loads[g] + w > max_load and loads[g] + w >= loads[src]:
                    continue
                cut_delta = internal - conn.get(g, 0.0)
                if best is None or cut_delta < best[0]:
                    best = (cut_delta, v, g)
            if best is not None and best[0] <= 0:
                break
        if best is None:
            break
        _, v, dst = best
        groups[v] = dst
        loads[src] -= weights[v]
        loads[dst] += weights[v]
        counts[src] -= 1
        counts[dst] += 1
    return groups


def _refine_kway_oracle(graph, groups, k, max_load, passes=4, seed=0):
    rng = as_rng(seed)
    loads = np.bincount(groups, weights=graph.vertex_weights, minlength=k).astype(np.float64)
    counts = np.bincount(groups, minlength=k)
    weights = graph.vertex_weights

    for _pass in range(passes):
        moved = False
        for v in rng.permutation(graph.num_tasks):
            v = int(v)
            src = int(groups[v])
            if counts[src] <= 1:
                continue
            nbrs, wts = graph.neighbor_slice(v)
            if len(nbrs) == 0:
                continue
            conn: dict[int, float] = {}
            for j, w in zip(nbrs, wts):
                g = int(groups[j])
                conn[g] = conn.get(g, 0.0) + float(w)
            internal = conn.get(src, 0.0)
            best_g, best_gain = -1, 0.0
            for g, c in conn.items():
                if g == src:
                    continue
                gain = c - internal
                if gain > best_gain and loads[g] + weights[v] <= max_load:
                    best_g, best_gain = g, gain
            if best_g >= 0:
                groups[v] = best_g
                loads[src] -= weights[v]
                loads[best_g] += weights[v]
                counts[src] -= 1
                counts[best_g] += 1
                moved = True
        if not moved:
            break
    return groups


# --------------------------------------------------------------- strategies
@st.composite
def graphs(draw, max_n: int = 24):
    """Sparse weighted graphs: disconnected pieces, isolated vertices, zero
    and fractional vertex weights, duplicate edges that merge."""
    n = draw(st.integers(1, max_n))
    num_edges = draw(st.integers(0, 2 * n))
    edges = []
    for _ in range(num_edges):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            edges.append((a, b, draw(st.sampled_from([0.5, 1.0, 3.0, 7.25, 100.0]))))
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 2.5, 9.0]),
                            min_size=n, max_size=n))
    return TaskGraph(n, edges, vertex_weights=weights)


@st.composite
def graph_and_groups(draw):
    g = draw(graphs())
    k = draw(st.integers(1, g.num_tasks))
    groups = np.array(draw(st.lists(st.integers(0, k - 1), min_size=g.num_tasks,
                                    max_size=g.num_tasks)), dtype=np.int64)
    return g, k, groups


# -------------------------------------------------------------------- tests
@given(graphs(), st.data(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_recursive_bisection_matches_oracle(g, data, seed):
    k = data.draw(st.integers(1, g.num_tasks))
    got = RecursiveBisectionPartitioner(seed=seed).partition(g, k)
    np.testing.assert_array_equal(got, _recursive_bisection_oracle(g, k, seed))


@given(graphs(), st.data(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_grow_bisection_on_a_subset_matches_oracle(g, data, seed):
    """Recursive embedding bisects arbitrary subsets in arbitrary order."""
    assume(g.num_tasks >= 2)
    size = data.draw(st.integers(2, g.num_tasks))
    subset = np.random.default_rng(seed).permutation(g.num_tasks)[:size]
    k1 = data.draw(st.integers(1, size - 1))
    k2 = data.draw(st.integers(1, size - k1))
    got = grow_bisection(g, csr_lists(g), subset, k1, k2, np.random.default_rng(seed))
    want = _grow_bisection_oracle(g, subset, k1, k2, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)


@given(graph_and_groups(), st.sampled_from([1.0, 1.1, 1.5]), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_refine_kway_matches_oracle(case, tol, seed):
    g, k, groups = case
    max_load = tol * g.total_vertex_weight / k
    got = refine_kway(g, groups.copy(), k, max_load, passes=4, seed=seed)
    want = _refine_kway_oracle(g, groups.copy(), k, max_load, passes=4, seed=seed)
    np.testing.assert_array_equal(got, want)


@given(graph_and_groups(), st.sampled_from([1.0, 1.1, 1.5]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rebalance_kway_matches_oracle(case, tol, heavy):
    g, k, groups = case
    if heavy:
        # Vertex 0 outweighs the ceiling whenever k >= 2: unmovable by balance.
        weights = g.vertex_weights.copy()
        weights[0] = 10.0 * (weights.sum() + 1.0)
        u, v, w = g.edge_arrays()
        g = TaskGraph.from_arrays(g.num_tasks, u, v, w, weights)
    max_load = tol * g.total_vertex_weight / k
    got = rebalance_kway(g, groups.copy(), k, max_load)
    want = _rebalance_kway_oracle(g, groups.copy(), k, max_load)
    np.testing.assert_array_equal(got, want)


def _multilevel_oracle(graph, k, seed=0, tol=1.10, coarsen_factor=8, passes=4):
    """``MultilevelPartitioner.partition`` with the oracles in its loops."""
    rng = as_rng(seed)
    levels = []
    current = graph
    while current.num_tasks > max(coarsen_factor * k, 64):
        match = heavy_edge_matching(current, rng)
        coarse, fine2coarse = contract(current, match)
        if coarse.num_tasks < k or coarse.num_tasks > 0.95 * current.num_tasks:
            break
        levels.append((current, fine2coarse))
        current = coarse
    groups = _recursive_bisection_oracle(current, k, rng).copy()
    total = graph.total_vertex_weight
    max_load = tol * total / k if total > 0 else np.inf
    groups = _rebalance_kway_oracle(current, groups, k, max_load)
    groups = _refine_kway_oracle(current, groups, k, max_load, passes, rng)
    for fine_graph, fine2coarse in reversed(levels):
        groups = groups[fine2coarse]
        groups = _rebalance_kway_oracle(fine_graph, groups, k, max_load)
        groups = _refine_kway_oracle(fine_graph, groups, k, max_load, passes, rng)
    return MultilevelPartitioner._repair_empty_groups(graph, groups, k)


def test_leanmd_phase1_matches_oracle():
    """The paper's regime: 3,752 tasks onto k = 512 never coarsens."""
    g = leanmd_taskgraph(512)
    got = MultilevelPartitioner().partition(g, 512)
    np.testing.assert_array_equal(got, _multilevel_oracle(g, 512))


def test_sparse_random_phase1_matches_oracle():
    """Isolated vertices, and both the coarsening and the flat regime."""
    g = random_taskgraph(200, edge_prob=0.01, seed=5)
    for k in (2, 7, 64, 200):
        got = MultilevelPartitioner(seed=3).partition(g, k)
        np.testing.assert_array_equal(got, _multilevel_oracle(g, k, seed=3))


def test_rebalance_large_overloaded_group_matches_oracle():
    """Groups past 16 members take NumPy's unstable heavy-first argsort path."""
    rng = np.random.default_rng(7)
    base = random_taskgraph(300, edge_prob=0.02, seed=7)
    u, v, w = base.edge_arrays()
    g = TaskGraph.from_arrays(300, u, v, w, rng.integers(0, 4, size=300).astype(float))
    groups = np.where(rng.random(300) < 0.8, 0, rng.integers(1, 6, size=300))
    max_load = 1.05 * g.total_vertex_weight / 6
    got = rebalance_kway(g, groups.copy(), 6, max_load)
    np.testing.assert_array_equal(got, _rebalance_kway_oracle(g, groups.copy(), 6, max_load))
