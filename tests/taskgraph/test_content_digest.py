"""TaskGraph.content_digest: stability, sensitivity, cross-process equality.

The digest is the graph half of the service's content-addressed cache key,
so its contract is load-bearing: equal structure must hash equally no
matter how the graph was built, any structural mutation must change the
hash, and the value must be identical across processes.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.taskgraph import TaskGraph, coalesce, mesh2d_pattern


@st.composite
def task_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    max_edges = n * (n - 1) // 2
    k = draw(st.integers(min_value=0, max_value=min(max_edges, 20)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ab: ab[0] != ab[1]
            ),
            min_size=k, max_size=k,
        )
    )
    weights = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=k, max_size=k,
    ))
    vw = draw(st.one_of(
        st.none(),
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                 min_size=n, max_size=n),
    ))
    edges = [(a, b, w) for (a, b), w in zip(pairs, weights)]
    return TaskGraph(n, edges, vw), edges, vw


def _duplicate_edge_graph(weights):
    edges = [(0, 1, w) for w in weights]
    return TaskGraph(4, edges), edges, None


@given(task_graphs())
@settings(max_examples=60, deadline=None)
# Five duplicate (0,1) edges of mixed magnitude: summing them in input order
# gave the reversed clone a different last ulp, hence a different digest.
@example(_duplicate_edge_graph(
    [1.3797284338426514, 1e6, 48575.0, 1.0747139692306519, 0.0]
))
def test_digest_is_deterministic_and_build_path_independent(data):
    graph, edges, vw = data
    assert graph.content_digest() == graph.content_digest()

    # Same structure through the vectorized constructor, edges reversed and
    # flipped: the canonical edge arrays are identical, so the digest is.
    if edges:
        u, v, w = zip(*[(b, a, w) for a, b, w in reversed(edges)])
    else:
        u, v, w = (), (), ()
    clone = TaskGraph.from_arrays(
        graph.num_tasks,
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        vw,
    )
    assert clone.content_digest() == graph.content_digest()


def test_duplicate_merge_ignores_input_order():
    weights = [1.3797284338426514, 1.0747139692306519, 48575, 1e6, 0, 0.1]
    digests = {
        TaskGraph(2, [(0, 1, w) for w in order]).content_digest()
        for order in itertools.permutations(weights)
    }
    assert len(digests) == 1


@given(task_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_digest_invariant_under_relabel_round_trip(data, rnd):
    graph, _, _ = data
    perm = list(range(graph.num_tasks))
    rnd.shuffle(perm)
    inverse = np.argsort(np.asarray(perm)).tolist()
    round_tripped = graph.relabel(perm).relabel(inverse)
    assert round_tripped.content_digest() == graph.content_digest()


@given(task_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_derived_graphs_match_the_tuple_built_graph(data, rnd):
    """relabel, induced and coalesce build through ``from_arrays``; each
    gives exactly the graph the per-edge tuple constructor builds."""
    graph, _, _ = data
    n = graph.num_tasks
    edges = list(graph.edges())
    vw = graph.vertex_weights

    perm = list(range(n))
    rnd.shuffle(perm)
    permuted_vw = np.empty(n)
    permuted_vw[perm] = vw
    want = TaskGraph(n, [(perm[a], perm[b], w) for a, b, w in edges],
                     permuted_vw)
    assert graph.relabel(perm).content_digest() == want.content_digest()

    subset = rnd.sample(range(n), rnd.randint(1, n))
    local = {t: i for i, t in enumerate(subset)}
    want = TaskGraph(
        len(subset),
        [(local[a], local[b], w) for a, b, w in edges
         if a in local and b in local],
        vw[subset],
    )
    assert graph.induced(subset).content_digest() == want.content_digest()

    k = rnd.randint(1, n)
    groups = list(range(k)) + [rnd.randrange(k) for _ in range(n - k)]
    rnd.shuffle(groups)
    want = TaskGraph(
        k,
        [(groups[a], groups[b], w) for a, b, w in edges
         if groups[a] != groups[b]],
        np.bincount(groups, weights=vw, minlength=k),
    )
    assert coalesce(graph, groups).content_digest() == want.content_digest()


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_digest_changes_on_any_mutation(data):
    graph, edges, vw = data
    digest = graph.content_digest()
    n = graph.num_tasks

    # Add a task.
    assert TaskGraph(n + 1, edges, None if vw is None else vw + [1.0]
                     ).content_digest() != digest

    # Perturb a vertex weight.
    heavier = (np.ones(n) if vw is None else np.asarray(vw)).copy()
    heavier[0] += 1.0
    assert TaskGraph(n, edges, heavier).content_digest() != digest

    if graph.num_edges:
        u, v, w = graph.edge_arrays()
        # Perturb one merged edge weight.
        w2 = w.copy()
        w2[0] += 1.0
        assert TaskGraph.from_arrays(n, u, v, w2).content_digest() != digest
        # Drop one edge.
        assert TaskGraph.from_arrays(
            n, u[1:], v[1:], w[1:]
        ).content_digest() != digest


def test_digest_changes_when_edge_moves_endpoint():
    base = TaskGraph(4, [(0, 1, 5.0), (1, 2, 7.0)])
    moved = TaskGraph(4, [(0, 1, 5.0), (1, 3, 7.0)])
    assert base.content_digest() != moved.content_digest()


def test_pattern_digest_equals_array_rebuild():
    """A generated pattern hashes as its edges and weights alone, so the
    same graph rebuilt from its arrays shares its digest (and cache key)."""
    plain = mesh2d_pattern(3, 3, message_bytes=64)
    rebuilt = TaskGraph.from_arrays(
        plain.num_tasks, *plain.edge_arrays(), plain.vertex_weights
    )
    assert rebuilt.content_digest() == plain.content_digest()


def test_digest_distinguishes_weights_dropped_vs_zero():
    with_zero = TaskGraph(3, [(0, 1, 0.0), (1, 2, 4.0)])
    without = TaskGraph(3, [(1, 2, 4.0)])
    assert with_zero.content_digest() != without.content_digest()


def test_digest_equal_across_processes():
    """The same spec hashes to the same value in a fresh interpreter."""
    code = (
        "from repro.engine import graph_from_spec;"
        "print(graph_from_spec('mesh2d:6x7;bytes=512').content_digest())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
    )
    from repro.engine import graph_from_spec

    local = graph_from_spec("mesh2d:6x7;bytes=512").content_digest()
    assert out.stdout.strip() == local
    assert len(local) == 64 and int(local, 16) >= 0


@pytest.mark.parametrize("spec_a,spec_b", [
    ("mesh2d:4x4;bytes=64", "mesh2d:4x4;bytes=128"),
    ("mesh2d:4x4", "mesh2d:4x5"),
    ("ring:6", "alltoall:6"),
])
def test_digest_separates_spec_families(spec_a, spec_b):
    from repro.engine import graph_from_spec

    assert (graph_from_spec(spec_a).content_digest()
            != graph_from_spec(spec_b).content_digest())
