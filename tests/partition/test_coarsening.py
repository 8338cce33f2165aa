"""Coarsening unit tests: conservation, composition, termination, and the
vectorized fast paths behind the multilevel mapper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.coarsening import (
    coarsen_toward,
    contract,
    heavy_edge_matching,
    limit_pairs,
    pair_unmatched,
)
from repro.taskgraph import TaskGraph, mesh2d_pattern, random_taskgraph
from repro.utils.rng import as_rng


def _star(n: int) -> TaskGraph:
    return TaskGraph(n, [(0, i, float(i)) for i in range(1, n)])


def _coarsen_levels(graph: TaskGraph, target: int, seed: int = 0):
    """Coarsen toward ``target`` level by level, as the multilevel mapper's
    first phase does; returns ``(coarsest graph, fine→coarse maps)``."""
    maps = []
    g = graph
    while g.num_tasks > target:
        g, fine2coarse = coarsen_toward(g, target, seed=seed + len(maps))
        maps.append(fine2coarse)
    return g, maps


def _matching_oracle(graph: TaskGraph, seed) -> np.ndarray:
    """The original per-vertex ``neighbor_slice`` greedy loop, kept as the
    specification ``heavy_edge_matching`` is pinned to."""
    rng = as_rng(seed)
    n = graph.num_tasks
    match = np.full(n, -1, dtype=np.int64)
    for v in rng.permutation(n):
        v = int(v)
        if match[v] >= 0:
            continue
        nbrs, wts = graph.neighbor_slice(v)
        best, best_w = v, -1.0
        for j, w in zip(nbrs, wts):
            j = int(j)
            if match[j] < 0 and j != v and w > best_w:
                best, best_w = j, float(w)
        match[v] = best
        match[best] = v
    return match


@st.composite
def _tied_graphs(draw):
    """Random graphs whose weights come from a tiny pool (many ties, zero
    weights) and whose vertex count exceeds the edge endpoints' span
    (isolated vertices)."""
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(
        st.tuples(pairs, st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.5])),
        max_size=3 * n if n > 1 else 0,
    ))
    return TaskGraph(n, [(a, b, w) for (a, b), w in edges])


class TestMatchingAndContraction:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_matching_is_a_symmetric_involution(self, seed):
        graph = random_taskgraph(int(3 + seed % 20), edge_prob=0.3, seed=seed)
        match = heavy_edge_matching(graph, seed=seed)
        ids = np.arange(graph.num_tasks)
        assert np.array_equal(match[match], ids)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_contract_conserves_edge_weight(self, seed):
        """Coarse total bytes + bytes hidden inside merged pairs == fine total."""
        graph = random_taskgraph(int(4 + seed % 20), edge_prob=0.4, seed=seed)
        match = pair_unmatched(heavy_edge_matching(graph, seed=seed))
        coarse, fine2coarse = contract(graph, match)
        u, v, w = graph.edge_arrays()
        hidden = float(w[fine2coarse[u] == fine2coarse[v]].sum())
        assert coarse.total_bytes + hidden == pytest.approx(graph.total_bytes)
        # Loads are conserved exactly (sums of unit weights here).
        assert coarse.vertex_weights.sum() == pytest.approx(
            graph.vertex_weights.sum()
        )

    def test_contract_matches_sequential_numbering(self):
        """The vectorized symmetric path numbers coarse vertices exactly like
        the sequential first-visit scan."""
        graph = random_taskgraph(17, edge_prob=0.3, seed=7)
        match = pair_unmatched(heavy_edge_matching(graph, seed=7))
        _, fast = contract(graph, match)
        slow = np.full(graph.num_tasks, -1, dtype=np.int64)
        next_id = 0
        for vtx in range(graph.num_tasks):
            if slow[vtx] < 0:
                slow[vtx] = slow[int(match[vtx])] = next_id
                next_id += 1
        assert np.array_equal(fast, slow)

    def test_contract_rejects_a_non_involution(self):
        graph = TaskGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="involution"):
            contract(graph, np.array([1, 2, 0]))

    @given(graph=_tied_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matching_equals_neighbor_slice_oracle(self, graph, seed):
        """Visit order, the strict ``w > best_w`` test and tie-breaking all
        match the per-vertex loop, so the ``match`` arrays are identical."""
        match = heavy_edge_matching(graph, seed=seed)
        assert match.dtype == np.int64
        assert np.array_equal(match, _matching_oracle(graph, seed))

    def test_forced_step_halves_exactly(self):
        graph = _star(11)
        coarse, _ = coarsen_toward(graph, 1, seed=0)
        assert coarse.num_tasks == 6  # ceil(11 / 2)


class TestLimitPairs:
    def test_partial_contraction_hits_exact_target(self):
        graph = mesh2d_pattern(6, 6)
        for target in (36, 35, 30, 20, 18):
            coarse, _ = coarsen_toward(graph, target, seed=0)
            assert coarse.num_tasks == max(target, 18)  # never below ceil(n/2)

    def test_heaviest_pairs_survive(self):
        # a-b carries 100 bytes, c-d carries 1; only one merge allowed.
        graph = TaskGraph(4, [(0, 1, 100.0), (2, 3, 1.0)])
        match = pair_unmatched(heavy_edge_matching(graph, seed=0))
        limited = limit_pairs(graph, match, 1)
        assert limited[0] == 1 and limited[1] == 0  # heavy pair kept
        assert limited[2] == 2 and limited[3] == 3  # light pair released

    def test_zero_budget_unmatches_everything(self):
        graph = mesh2d_pattern(3, 3)
        match = pair_unmatched(heavy_edge_matching(graph, seed=0))
        limited = limit_pairs(graph, match, 0)
        assert np.array_equal(limited, np.arange(9))


class TestCoarsenLevels:
    @pytest.mark.parametrize(
        "graph",
        [
            _star(15),  # matching starves after the first pair
            TaskGraph(12),  # singleton cloud: no edges at all
            TaskGraph(10, [(i, i + 1, 0.0) for i in range(9)]),  # zero weights
        ],
        ids=["star", "singletons", "zero-weight"],
    )
    def test_terminates_on_pathological_graphs(self, graph):
        coarsest, maps = _coarsen_levels(graph, target=2, seed=0)
        assert coarsest.num_tasks <= 2
        assert len(maps) <= int(np.ceil(np.log2(graph.num_tasks))) + 1

    def test_noop_when_already_small_enough(self):
        graph = mesh2d_pattern(2, 2)
        coarsest, maps = _coarsen_levels(graph, target=8, seed=0)
        assert coarsest is graph
        assert maps == []

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_vertex_maps_compose_and_conserve_loads(self, seed):
        graph = random_taskgraph(int(10 + seed % 40), edge_prob=0.2, seed=seed)
        coarsest, maps = _coarsen_levels(graph, target=4, seed=seed)
        comp = np.arange(graph.num_tasks, dtype=np.int64)
        for fine2coarse in maps:
            comp = fine2coarse[comp]
        assert comp.min() >= 0 and comp.max() < coarsest.num_tasks
        assert len(np.unique(comp)) == coarsest.num_tasks
        composed_loads = np.bincount(
            comp, weights=graph.vertex_weights, minlength=coarsest.num_tasks
        )
        assert np.allclose(composed_loads, coarsest.vertex_weights)


class TestFromArrays:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_dict_accumulation(self, seed):
        """from_arrays must reproduce the dict-accumulation constructor
        exactly — including duplicate merging in either orientation."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = int(rng.integers(0, 30))
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        keep = u != v
        u, v = u[keep], v[keep]
        w = rng.integers(1, 100, size=len(u)).astype(np.float64)
        loads = rng.integers(1, 5, size=n).astype(np.float64)

        fast = TaskGraph.from_arrays(n, u, v, w, loads)
        slow = TaskGraph(n, zip(u.tolist(), v.tolist(), w.tolist()), loads)
        for a, b in zip(fast.edge_arrays(), slow.edge_arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(fast.csr_arrays(), slow.csr_arrays()):
            assert np.array_equal(a, b)
        assert fast.total_bytes == slow.total_bytes

    def test_rejects_bad_edges(self):
        from repro.exceptions import TaskGraphError

        with pytest.raises(TaskGraphError):
            TaskGraph.from_arrays(3, [0], [0], [1.0])  # self-edge
        with pytest.raises(TaskGraphError):
            TaskGraph.from_arrays(3, [0], [5], [1.0])  # out of bounds
        with pytest.raises(TaskGraphError):
            TaskGraph.from_arrays(3, [0], [1], [-1.0])  # negative weight
