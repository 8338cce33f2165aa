"""Cross-mapper property tests: invariants every strategy must satisfy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import (
    HybridTopoLB,
    LinearOrderingMapper,
    Mapping,
    RandomMapper,
    RecursiveEmbeddingMapper,
    RefineTopoLB,
    TopoCentLB,
    TopoLB,
    hop_bytes,
    hop_bytes_lower_bound,
)
from repro.taskgraph import TaskGraph, random_taskgraph
from repro.topology import Mesh, Torus

MAPPER_FACTORIES = [
    lambda: TopoLB(),
    lambda: TopoLB(order=1),
    lambda: TopoLB(order=3),
    lambda: TopoCentLB(),
    lambda: LinearOrderingMapper(),
    lambda: RecursiveEmbeddingMapper(seed=0),
    lambda: HybridTopoLB(num_blocks=3, seed=0),
]


@given(
    seed=st.integers(0, 20_000),
    mapper_idx=st.integers(0, len(MAPPER_FACTORIES) - 1),
    wrap=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_bijection_and_bound(seed, mapper_idx, wrap):
    """Every mapper yields a bijection whose HB respects the lower bound
    and matches an independent recomputation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 14))
    graph = random_taskgraph(n, edge_prob=0.35, seed=seed)
    topo = (Torus if wrap else Mesh)((n,))
    mapping = MAPPER_FACTORIES[mapper_idx]().map(graph, topo)
    assert sorted(mapping.assignment.tolist()) == list(range(n))
    recomputed = hop_bytes(graph, topo, mapping.assignment)
    assert mapping.hop_bytes == pytest.approx(recomputed)
    assert recomputed >= hop_bytes_lower_bound(graph, topo) - 1e-9


@given(seed=st.integers(0, 20_000))
@settings(max_examples=30, deadline=None)
def test_property_refine_idempotent_at_fixpoint(seed):
    """Refining a refined mapping changes nothing (descent terminates at a
    swap-local minimum)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    graph = random_taskgraph(n, edge_prob=0.4, seed=seed)
    topo = Torus((n,))
    once = RefineTopoLB(max_sweeps=20, seed=0).refine(
        RandomMapper(seed=seed).map(graph, topo)
    )
    twice = RefineTopoLB(max_sweeps=20, seed=0).refine(once)
    assert twice.hop_bytes == pytest.approx(once.hop_bytes)


@given(seed=st.integers(0, 20_000), exponent=st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_property_uniform_weight_scaling_preserves_topolb_mapping(seed, exponent):
    """Scaling all edge weights uniformly must not change TopoLB's choices
    (the algorithm is scale-free in the bytes). Power-of-two factors keep
    IEEE arithmetic exact, so the assignments must match bit-for-bit;
    arbitrary factors can flip near-ties through rounding, which is a float
    artifact rather than an algorithmic one."""
    factor = float(2**exponent)
    n = 10
    graph = random_taskgraph(n, edge_prob=0.4, seed=seed)
    scaled = TaskGraph(
        n, [(a, b, w * factor) for a, b, w in graph.edges()], graph.vertex_weights
    )
    topo = Torus((n,))
    a = TopoLB().map(graph, topo).assignment
    b = TopoLB().map(scaled, topo).assignment
    assert (a == b).all()


@given(seed=st.integers(0, 20_000))
@settings(max_examples=25, deadline=None)
def test_property_colocating_any_pair_never_below_lower_bound_logic(seed):
    """Many-to-one mappings only reduce hop-bytes relative to spreading the
    same pair apart (moving a task onto its partner's processor zeroes that
    edge and cannot be beaten by the bound logic, which excludes it)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    graph = random_taskgraph(n, edge_prob=0.5, seed=seed)
    topo = Mesh((n,))
    base = RandomMapper(seed=seed).map(graph, topo)
    u, v, w = graph.edge_arrays()
    if len(u) == 0:
        return
    heaviest = int(np.argmax(w))
    a, b = int(u[heaviest]), int(v[heaviest])
    squashed = base.assignment.copy()
    squashed[a] = squashed[b]
    assert hop_bytes(graph, topo, squashed) <= base.hop_bytes + 1e-9 + float(
        np.dot(w, np.ones_like(w)) * topo.diameter()
    )
    # The tightened claim: removing the heaviest edge's distance is a real
    # decrease of at least w_max * d(P(a), P(b)) minus what a's other edges
    # gained; verify the decomposition exactly.
    delta = hop_bytes(graph, topo, squashed) - base.hop_bytes
    mat = topo.distance_matrix()
    expected = 0.0
    for j, c in zip(*graph.neighbor_slice(a)):
        j = int(j)
        old = mat[base.assignment[a], base.assignment[j]]
        new = mat[int(squashed[a]), int(squashed[j]) if j != a else int(squashed[a])]
        expected += c * (new - old)
    assert delta == pytest.approx(expected)
