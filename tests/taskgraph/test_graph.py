"""Tests for the TaskGraph data structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TaskGraphError
from repro.taskgraph import TaskGraph


class TestConstruction:
    def test_sizes(self, tiny_graph):
        assert tiny_graph.num_tasks == 4
        assert len(tiny_graph) == 4
        assert tiny_graph.num_edges == 4

    def test_default_vertex_weights(self):
        g = TaskGraph(3, [(0, 1, 5.0)])
        assert (g.vertex_weights == 1.0).all()
        assert g.total_vertex_weight == 3.0

    def test_duplicate_edges_merge(self):
        g = TaskGraph(3, [(0, 1, 5.0), (1, 0, 7.0), (0, 1, 1.0)])
        assert g.num_edges == 1
        assert g.total_bytes == 13.0

    def test_edgeless_graph(self):
        g = TaskGraph(4)
        assert g.num_edges == 0
        assert g.total_bytes == 0.0
        assert g.neighbors(0) == []
        assert g.degree(0) == 0

    def test_self_edge_rejected(self):
        with pytest.raises(TaskGraphError, match="self-edge"):
            TaskGraph(2, [(1, 1, 1.0)])

    def test_unknown_task_rejected(self):
        with pytest.raises(TaskGraphError):
            TaskGraph(2, [(0, 5, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(TaskGraphError):
            TaskGraph(2, [(0, 1, -1.0)])

    def test_negative_vertex_weight_rejected(self):
        with pytest.raises(TaskGraphError):
            TaskGraph(2, [], vertex_weights=[1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(TaskGraphError, match="finite"):
            TaskGraph(2, [(0, 1, bad)])
        with pytest.raises(TaskGraphError, match="finite"):
            TaskGraph(2, [], vertex_weights=[1.0, bad])
        with pytest.raises(TaskGraphError, match="finite"):
            TaskGraph.from_arrays(3, [0, 1], [1, 2], [1.0, bad])
        with pytest.raises(TaskGraphError, match="finite"):
            TaskGraph.from_arrays(2, [0], [1], [1.0], [bad, 1.0])

    def test_bad_vertex_weight_shape(self):
        with pytest.raises(TaskGraphError):
            TaskGraph(2, [], vertex_weights=[1.0])

    def test_zero_tasks_rejected(self):
        with pytest.raises(TaskGraphError):
            TaskGraph(0)

    def test_arrays_are_readonly(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.vertex_weights[0] = 99.0
        u, v, w = tiny_graph.edge_arrays()
        with pytest.raises(ValueError):
            w[0] = 99.0


class TestAccessors:
    def test_edges_canonical_order(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert edges == sorted(edges)
        assert all(a < b for a, b, _ in edges)

    def test_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.neighbors(0)) == [1, 3]
        assert sorted(tiny_graph.neighbors(1)) == [0, 2]

    def test_comm_volume(self, tiny_graph):
        assert tiny_graph.comm_volume(0) == 110.0
        assert tiny_graph.comm_volume(2) == 50.0

    def test_comm_volumes_vectorized(self, tiny_graph):
        vols = tiny_graph.comm_volumes()
        expected = [tiny_graph.comm_volume(t) for t in range(4)]
        assert vols.tolist() == expected

    def test_comm_volumes_with_isolated_tasks(self):
        g = TaskGraph(5, [(1, 3, 7.0)])
        assert g.comm_volumes().tolist() == [0.0, 7.0, 0.0, 7.0, 0.0]

    def test_degrees(self, tiny_graph):
        assert tiny_graph.degrees().tolist() == [2, 2, 2, 2]

    def test_neighbor_slice_alignment(self, tiny_graph):
        nbrs, wts = tiny_graph.neighbor_slice(0)
        pairs = dict(zip(nbrs.tolist(), wts.tolist()))
        assert pairs == {1: 10.0, 3: 100.0}

    def test_out_of_range_task(self, tiny_graph):
        with pytest.raises(TaskGraphError):
            tiny_graph.neighbors(4)

    def test_adjacency_csr_symmetric(self, tiny_graph):
        csr = tiny_graph.adjacency_csr()
        assert (csr != csr.T).nnz == 0
        assert csr.sum() == pytest.approx(2 * tiny_graph.total_bytes)


class TestConversion:
    def test_relabel_preserves_structure(self, tiny_graph):
        perm = [3, 1, 0, 2]
        g2 = tiny_graph.relabel(perm)
        assert g2.total_bytes == tiny_graph.total_bytes
        assert g2.vertex_weights[perm[0]] == tiny_graph.vertex_weights[0]
        # edge (0,1,10) becomes (3,1,10)
        assert 1 in g2.neighbor_slice(3)[0]

    def test_relabel_requires_permutation(self, tiny_graph):
        with pytest.raises(TaskGraphError):
            tiny_graph.relabel([0, 0, 1, 2])

    def test_induced_subgraph(self, tiny_graph):
        # tasks {0, 1, 3}: edges (0,1,10) and (0,3,100) survive; (1,2), (2,3) drop
        sub = tiny_graph.induced([0, 1, 3])
        assert sub.num_tasks == 3
        assert sub.total_bytes == 110.0
        assert sub.vertex_weights.tolist() == [1.0, 2.0, 4.0]
        assert 2 in sub.neighbor_slice(0)[0]  # local ids: 0->0, 1->1, 3->2

    def test_induced_order_respected(self, tiny_graph):
        sub = tiny_graph.induced([3, 0])
        assert sub.vertex_weights.tolist() == [4.0, 1.0]
        assert 1 in sub.neighbor_slice(0)[0]

    def test_induced_rejects_duplicates(self, tiny_graph):
        with pytest.raises(TaskGraphError, match="distinct"):
            tiny_graph.induced([0, 0, 1])

    def test_induced_rejects_unknown(self, tiny_graph):
        with pytest.raises(TaskGraphError):
            tiny_graph.induced([0, 9])


@given(
    n=st.integers(2, 20),
    edges=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19), st.floats(0, 1e6)),
        max_size=60,
    ),
)
@settings(max_examples=60)
def test_property_total_bytes_equals_half_volume_sum(n, edges):
    """Sum of per-task volumes double-counts each edge exactly once."""
    edges = [(a % n, b % n, w) for a, b, w in edges if a % n != b % n]
    g = TaskGraph(n, edges)
    assert g.comm_volumes().sum() == pytest.approx(2 * g.total_bytes)


@given(
    n=st.integers(2, 15),
    edges=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14), st.floats(0.1, 100)),
        max_size=40,
    ),
)
@settings(max_examples=50)
def test_property_csr_matches_edge_list(n, edges):
    edges = [(a % n, b % n, w) for a, b, w in edges if a % n != b % n]
    g = TaskGraph(n, edges)
    # Rebuild pairwise volumes from CSR and compare with edges().
    from_csr = {}
    for t in range(n):
        nbrs, wts = g.neighbor_slice(t)
        for j, w in zip(nbrs.tolist(), wts.tolist()):
            if t < j:
                from_csr[(t, j)] = w
    from_edges = {(a, b): w for a, b, w in g.edges()}
    assert set(from_csr) == set(from_edges)
    for k in from_csr:
        assert from_csr[k] == pytest.approx(from_edges[k])


class TestCSRAgainstSciPy:
    """The CSR adjacency is built with a lexsort and a bincount; SciPy's
    COO-to-CSR conversion is the oracle."""

    @staticmethod
    def _scipy_csr(graph):
        import scipy.sparse as sp

        u, v, w = graph.edge_arrays()
        n = graph.num_tasks
        csr = sp.csr_matrix((np.concatenate([w, w]),
                             (np.concatenate([u, v]), np.concatenate([v, u]))),
                            shape=(n, n))
        csr.sum_duplicates()
        return csr.indptr, csr.indices, csr.data

    @pytest.mark.parametrize("graph", [
        # duplicate input pairs in both orientations, and a zero weight
        TaskGraph(5, [(0, 1, 5.0), (1, 0, 7.0), (3, 1, 0.0), (4, 0, 2.5),
                      (0, 4, 1.5), (2, 4, 3.0)]),
        # isolated vertices at both ends and in the middle
        TaskGraph(8, [(5, 2, 1.0), (2, 3, 4.0), (3, 5, 2.0)]),
        TaskGraph(4),  # no edges
        TaskGraph.from_arrays(
            60, *(lambda r: (r.integers(0, 30, 400), r.integers(30, 60, 400),
                             r.random(400)))(np.random.default_rng(3))),
    ], ids=["duplicates", "isolated", "edgeless", "random"])
    def test_matches_scipy(self, graph):
        indptr, indices, weights = graph.csr_arrays()
        want = self._scipy_csr(graph)
        for got, ref in zip((indptr, indices, weights), want):
            np.testing.assert_array_equal(got, ref)
        assert (indptr.dtype, indices.dtype, weights.dtype) == (
            np.int64, np.int64, np.float64)
        assert not any(a.flags.writeable for a in (indptr, indices, weights))
