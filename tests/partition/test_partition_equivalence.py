"""Phase-1 partitioner equivalence: both production paths against oracles.

Recursive bisection and ``refine_kway`` run compiled
(``partition_bisect`` and ``partition_refine_pass`` in
``repro.mapping._native``) and fall back to loops over plain Python lists
built from ``TaskGraph.csr_arrays()`` under ``REPRO_NO_NATIVE=1``;
``rebalance_kway`` has only the list walk. The oracles below are the
per-vertex-accessor versions the list walks replaced, kept verbatim as
test-only references: same visit order, same ``rng`` draws, same float
operations. Every production result, on both paths, must be array-equal to
its oracle's, including on disconnected graphs, isolated and zero-weight
vertices, and vertices heavier than the load ceiling.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mapping import _native
from repro.partition.base import csr_lists
from repro.partition.coarsening import contract, heavy_edge_matching
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.recursive_bisection import (
    RecursiveBisectionPartitioner,
    _bisect_lists,
    _split_lists,
    _target,
    grow_bisection,
)
from repro.partition.refinement import (
    _refine_pass_lists,
    rebalance_kway,
    refine_kway,
)
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


# -------------------------------------------------------------------- paths
def _assert_both_paths_equal(run, want):
    """``run()`` must be array-equal to ``want`` on the compiled path (when
    a C compiler exists) and on the ``REPRO_NO_NATIVE=1`` list walk.

    The paths are a loop inside each test, not a parametrization, so the
    hypothesis tests keep one id and draw the same examples for both."""
    for no_native in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if no_native:
                mp.setenv("REPRO_NO_NATIVE", "1")
            np.testing.assert_array_equal(
                run(), want, err_msg="list walk" if no_native else "compiled")


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
    _assert_both_paths_equal(
        lambda: RecursiveBisectionPartitioner(seed=seed).partition(g, k),
        _recursive_bisection_oracle(g, k, seed))


@given(graphs(), st.data(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_grow_bisection_on_a_subset_matches_oracle(g, data, seed):
    """Recursive embedding bisects arbitrary subsets in arbitrary order."""
    assume(g.num_tasks >= 2)
    size = data.draw(st.integers(2, g.num_tasks))
    subset = np.random.default_rng(seed).permutation(g.num_tasks)[:size]
    k1 = data.draw(st.integers(1, size - 1))
    k2 = data.draw(st.integers(1, size - k1))
    _assert_both_paths_equal(
        lambda: grow_bisection(g, csr_lists(g), subset, k1, k2,
                               np.random.default_rng(seed)),
        _grow_bisection_oracle(g, subset, k1, k2, np.random.default_rng(seed)))


@given(graph_and_groups(), st.sampled_from([1.0, 1.1, 1.5]), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_refine_kway_matches_oracle(case, tol, seed):
    g, k, groups = case
    max_load = tol * g.total_vertex_weight / k
    _assert_both_paths_equal(
        lambda: refine_kway(g, groups.copy(), k, max_load, passes=4, seed=seed),
        _refine_kway_oracle(g, groups.copy(), k, max_load, passes=4, seed=seed))


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
    _assert_both_paths_equal(lambda: MultilevelPartitioner().partition(g, 512),
                             _multilevel_oracle(g, 512))


def test_sparse_random_phase1_matches_oracle():
    """Isolated vertices, and both the coarsening and the flat regime."""
    g = random_taskgraph(200, edge_prob=0.01, seed=5)
    for k in (2, 7, 64, 200):
        _assert_both_paths_equal(
            lambda: MultilevelPartitioner(seed=3).partition(g, k),
            _multilevel_oracle(g, k, seed=3))


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


# ------------------------------------------------------- compiled kernels
def _kernels():
    kernels = _native.load()
    if kernels is None:
        pytest.skip("no C compiler on this host")
    return kernels


@pytest.fixture
def native():
    return _kernels()


def _csr(g):
    indptr, indices, edge_w = g.csr_arrays()
    return indptr, indices, edge_w, g.vertex_weights


def test_compiled_bisect_splits_stably_and_restores_its_scratch(native):
    g = random_taskgraph(60, edge_prob=0.08, seed=4)
    rng = np.random.default_rng(4)
    order = rng.permutation(60).astype(np.int64)
    before = order.copy()
    lists = order.copy()
    indptr, indices, _, vw = _csr(g)
    bisect = native.partition_bisector(indptr, indices, vw, order)
    lo, hi = 7, 51
    target = float(vw[order[lo:hi]].sum()) * 3 / 7
    na = bisect(lo, hi, 5, 3, 4, target)
    assert na == _bisect_lists(csr_lists(g), lists, lo, hi, 5, 3, 4, target)
    np.testing.assert_array_equal(order, lists)
    # Outside the range nothing moves; inside, each side keeps its order.
    np.testing.assert_array_equal(order[:lo], before[:lo])
    np.testing.assert_array_equal(order[hi:], before[hi:])
    side_a = np.isin(before[lo:hi], order[lo:lo + na])
    np.testing.assert_array_equal(order[lo:lo + na], before[lo:hi][side_a])
    np.testing.assert_array_equal(order[lo + na:hi], before[lo:hi][~side_a])
    assert 3 <= na <= hi - lo - 4
    assert not bisect.state.any()


def test_compiled_refine_pass_breaks_gain_ties_toward_first_seen_group(native):
    # Vertex 0 sits in group 0 beside group 2 (neighbour 1, seen first) and
    # group 1 (neighbour 2), one byte each: equal gains, so group 2 wins.
    g = TaskGraph(4, [(0, 1, 1.0), (0, 2, 1.0)])
    indptr, indices, edge_w, vw = _csr(g)
    groups = np.array([0, 2, 1, 0], dtype=np.int64)
    loads = np.bincount(groups, weights=vw, minlength=3)
    counts = np.bincount(groups, minlength=3).astype(np.int64)
    moved = native.partition_refine_pass(indptr, indices, edge_w, vw, groups,
                                         loads, counts, np.arange(4), np.inf)
    assert moved
    np.testing.assert_array_equal(groups, [2, 2, 1, 0])
    np.testing.assert_array_equal(loads, [1.0, 1.0, 2.0])
    np.testing.assert_array_equal(counts, [1, 1, 2])


def test_compiled_partitioner_rejects_inconsistent_sizes(native):
    g = random_taskgraph(10, edge_prob=0.3, seed=1)
    indptr, indices, edge_w, vw = _csr(g)
    order = np.arange(10, dtype=np.int64)
    for args in ((indptr[:-1], indices, vw, order),           # short indptr
                 (indptr, indices[:-1], vw, order),           # short indices
                 (indptr, indices, vw, order.astype(np.int32)),
                 (indptr, indices, vw, np.array([0, 10])),   # id out of range
                 (indptr, indices, vw, np.arange(11))):       # too long
        with pytest.raises(ValueError):
            native.partition_bisector(*args)
    bisect = native.partition_bisector(indptr, indices, vw, order)
    for lo, hi, r in ((0, 11, 0), (4, 4, 0), (0, 5, 5), (-1, 5, 0)):
        with pytest.raises(ValueError):
            bisect(lo, hi, r, 1, 1, 1.0)

    groups = np.zeros(10, dtype=np.int64)
    groups[5:] = 1
    loads = np.bincount(groups, weights=vw, minlength=2)
    counts = np.bincount(groups, minlength=2).astype(np.int64)
    perm = np.arange(10)
    good = (indptr, indices, edge_w, vw, groups, loads, counts, perm, np.inf)
    for i, bad in ((4, groups[:-1]), (4, groups + 1), (5, loads[:1]),
                   (6, counts[:1]), (6, counts.astype(np.int32)),
                   (7, perm[:-1]), (7, perm + 1), (2, edge_w[:-1])):
        args = list(good)
        args[i] = bad
        with pytest.raises(ValueError):
            native.partition_refine_pass(*args)
    assert native.partition_refine_pass(*good) in (True, False)


# ------------------------------------- compiled entry points, differentially
@st.composite
def tie_graphs(draw, max_n: int = 30):
    """Graphs with isolated vertices and integer vertex and edge weights,
    zeros included, which force load and gain ties."""
    n = draw(st.integers(2, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.integers(1, 3)),
                          max_size=2 * n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return TaskGraph(n, [(a, b, float(w)) for a, b, w in pairs if a != b],
                     vertex_weights=[float(w) for w in weights])


#: Bit generators with different 32-bit draws: PCG64 and SFC64 halve a
#: 64-bit output, MT19937 and Philox have their own.
BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)


@given(tie_graphs(), st.data())
@settings(max_examples=min(60, settings().max_examples), deadline=None)
def test_compiled_bisector_matches_list_walk(g, data):
    """``partition_bisect`` against ``_bisect_lists`` on a drawn range of
    a drawn order: the same |A| and the same split of ``order``."""
    kernels = _kernels()
    n = g.num_tasks
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    lo = data.draw(st.integers(0, n - 2))
    hi = data.draw(st.integers(lo + 2, n))
    k1 = data.draw(st.integers(1, hi - lo - 1))
    k2 = data.draw(st.integers(1, hi - lo - k1))
    r = data.draw(st.integers(0, hi - lo - 1))
    target = _target(g.vertex_weights, order[lo:hi], k1, k2)
    lists = order.copy()
    indptr, indices, _ = g.csr_arrays()
    bisect = kernels.partition_bisector(indptr, indices, g.vertex_weights, order)
    assert bisect(lo, hi, r, k1, k2, target) == _bisect_lists(
        csr_lists(g), lists, lo, hi, r, k1, k2, target)
    np.testing.assert_array_equal(order, lists)


@given(tie_graphs(), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=min(60, settings().max_examples), deadline=None)
def test_compiled_refine_pass_matches_list_walk(g, data, seed):
    """``partition_refine_pass`` against ``_refine_pass_lists`` pass by
    pass (groups, loads, counts and the moved flag), then ``refine_kway``
    on both paths: the same groups and the same rng state afterwards."""
    kernels = _kernels()
    n = g.num_tasks
    k = data.draw(st.integers(1, n))
    start = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                        max_size=n)), dtype=np.int64)
    max_load = data.draw(st.sampled_from([1.0, 1.1, 1.5])) * g.total_vertex_weight / k
    groups = start.copy()
    loads = np.bincount(groups, weights=g.vertex_weights, minlength=k)
    counts = np.bincount(groups, minlength=k).astype(np.int64)
    lists = (groups.tolist(), loads.tolist(), counts.tolist())
    indptr, indices, edge_w = g.csr_arrays()
    csr = csr_lists(g)
    rng = np.random.default_rng(seed)
    for _pass in range(3):
        perm = rng.permutation(n)
        moved = kernels.partition_refine_pass(
            indptr, indices, edge_w, g.vertex_weights, groups, loads, counts,
            perm, max_load)
        assert moved == _refine_pass_lists(csr, *lists, perm.tolist(), max_load)
        assert (groups.tolist(), loads.tolist(), counts.tolist()) == lists

    runs = []
    for no_native in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if no_native:
                mp.setenv("REPRO_NO_NATIVE", "1")
            rng = np.random.default_rng(seed)
            out = refine_kway(g, start.copy(), k, max_load, passes=4, seed=rng)
            runs.append((out.tolist(), rng.bit_generator.state))
    assert runs[0] == runs[1]


def _state(value):
    """A bit generator's state with its arrays as lists, for ``==``."""
    if isinstance(value, dict):
        return {key: _state(v) for key, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _split_both(g, k, seed, bit_generator=np.random.PCG64):
    """(sizes, order, rng state) of ``partition_recursive`` and of
    ``_split_lists`` from the same seed."""
    kernels = _kernels()
    indptr, indices, _ = g.csr_arrays()
    runs = []
    for compiled in (True, False):
        order = np.arange(g.num_tasks, dtype=np.int64)
        rng = np.random.Generator(bit_generator(seed))
        if compiled:
            sizes = kernels.partition_bisector(
                indptr, indices, g.vertex_weights, order).split(k, rng)
        else:
            bisect = partial(_bisect_lists, csr_lists(g), order)
            sizes = _split_lists(bisect, g.vertex_weights, order, k, rng)
        runs.append((sizes.tolist(), order.tolist(),
                     _state(rng.bit_generator.state)))
    return runs


@given(tie_graphs(max_n=40) | graphs(), st.data(), st.integers(0, 2**32 - 1),
       st.sampled_from(BIT_GENERATORS))
@settings(max_examples=min(80, settings().max_examples), deadline=None)
def test_compiled_recursion_matches_reference(g, data, seed, bit_generator):
    """``partition_recursive`` against ``_split_lists``: the same leaf
    sizes, the same order, and the Generator left in the same state, so
    every seed drawn in C came from the Generator's own 32-bit draws."""
    k = data.draw(st.integers(1, g.num_tasks))
    compiled, reference = _split_both(g, k, seed, bit_generator)
    assert compiled == reference


def test_compiled_recursion_targets_the_pairwise_sum():
    """On a 13-task path of weight 0.1, NumPy's pairwise sum of the loads
    and a sequential one round apart, and the split lands on either side of
    that difference: only the pairwise target reproduces the reference."""
    g = TaskGraph(13, [(i, i + 1, 1.0) for i in range(12)], [0.1] * 13)
    compiled, reference = _split_both(g, 2, 0)
    assert compiled == reference

    def sequential(weights, members, k1, k2):
        total = 0.0
        for w in weights[members].tolist():
            total += w
        return total * k1 / (k1 + k2)

    order = np.arange(13, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.partition.recursive_bisection._target", sequential)
        sizes = _split_lists(partial(_bisect_lists, csr_lists(g), order),
                             g.vertex_weights, order, 2, np.random.default_rng(0))
    assert sizes.tolist() != reference[0]


def test_compiled_recursion_rejects_bad_k():
    kernels = _kernels()
    g = random_taskgraph(10, edge_prob=0.3, seed=1)
    indptr, indices, _ = g.csr_arrays()
    split = kernels.partition_bisector(indptr, indices, g.vertex_weights,
                                       np.arange(10, dtype=np.int64)).split
    for k in (0, 11):
        with pytest.raises(ValueError):
            split(k, np.random.default_rng(0))
