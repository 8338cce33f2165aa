"""Tests for hop-bytes and related mapping metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MappingError
from repro.mapping.context import MappingContext
from repro.mapping.metrics import (
    dilation_stats,
    edge_distances,
    hop_bytes,
    hops_per_byte,
    load_imbalance,
    metrics_block,
    per_link_loads,
    per_task_hop_bytes,
    processor_loads,
)
from repro.taskgraph import TaskGraph, random_taskgraph
from repro.topology import Hypercube, Mesh, Torus


class TestHopBytes:
    def test_manual_example(self, tiny_graph):
        topo = Mesh((4,))  # a path of 4 processors
        # identity: d(0,1)=1, d(1,2)=1, d(2,3)=1, d(0,3)=3
        assert hop_bytes(tiny_graph, topo, [0, 1, 2, 3]) == pytest.approx(
            10 * 1 + 20 * 1 + 30 * 1 + 100 * 3
        )

    def test_all_on_one_processor_is_zero(self, tiny_graph):
        topo = Mesh((2, 2))
        assert hop_bytes(tiny_graph, topo, [0, 0, 0, 0]) == 0.0

    def test_hops_per_byte_normalization(self, tiny_graph):
        topo = Mesh((4,))
        hb = hop_bytes(tiny_graph, topo, [0, 1, 2, 3])
        assert hops_per_byte(tiny_graph, topo, [0, 1, 2, 3]) == pytest.approx(
            hb / tiny_graph.total_bytes
        )

    def test_edgeless_graph(self):
        g = TaskGraph(3)
        topo = Mesh((3,))
        assert hop_bytes(g, topo, [0, 1, 2]) == 0.0
        assert hops_per_byte(g, topo, [0, 1, 2]) == 0.0

    def test_bad_assignment_shape(self, tiny_graph):
        topo = Mesh((4,))
        with pytest.raises(MappingError):
            hop_bytes(tiny_graph, topo, [0, 1])

    def test_bad_processor_id(self, tiny_graph):
        topo = Mesh((4,))
        with pytest.raises(MappingError):
            hop_bytes(tiny_graph, topo, [0, 1, 2, 9])

    def test_identity_on_matching_pattern_is_one_hop(self):
        from repro.taskgraph import mesh2d_pattern

        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        assert hops_per_byte(g, topo, np.arange(36)) == pytest.approx(1.0)


    def test_every_hop_bytes_is_the_left_to_right_sum(self):
        """One gather and one summation order for every consumer, so a
        fractional-weight instance gives the same bits on every host."""
        g = random_taskgraph(64, edge_prob=0.1, seed=1)
        topo = Torus((8, 8))
        assign = np.random.default_rng(0).permutation(64)
        w, d = edge_distances(g, topo, assign)
        total = 0.0
        for x in (w * d).tolist():
            total += x
        assert hop_bytes(g, topo, assign) == total
        assert metrics_block(g, topo, assign)["hop_bytes"] == total
        assert MappingContext(g, topo).hop_bytes(assign) == total
        assert dilation_stats(g, topo, assign)["weighted_mean"] == total / w.sum()


class TestPerTaskHopBytes:
    def test_additivity_identity(self, tiny_graph):
        """The paper's identity: HB = (1/2) * sum over tasks of HB(t)."""
        topo = Torus((2, 2))
        assign = [0, 1, 2, 3]
        per_task = per_task_hop_bytes(tiny_graph, topo, assign)
        assert per_task.sum() / 2 == pytest.approx(hop_bytes(tiny_graph, topo, assign))

    def test_isolated_task_contributes_zero(self):
        g = TaskGraph(3, [(0, 1, 10.0)])
        topo = Mesh((3,))
        per_task = per_task_hop_bytes(g, topo, [0, 2, 1])
        assert per_task[2] == 0.0


class TestPerLinkLoads:
    def test_single_edge_route(self):
        g = TaskGraph(2, [(0, 1, 100.0)])
        topo = Mesh((4,))
        loads = per_link_loads(g, topo, [0, 3])
        # 50 bytes each way across every link of the 3-hop path.
        assert loads[(0, 1)] == 50.0
        assert loads[(3, 2)] == 50.0
        assert len(loads) == 6

    def test_colocated_edge_loads_nothing(self):
        g = TaskGraph(2, [(0, 1, 100.0)])
        topo = Mesh((2, 2))
        assert per_link_loads(g, topo, [1, 1]) == {}

    def test_total_conservation(self, tiny_graph):
        """Summed link loads equal hop-bytes (each byte counted per hop)."""
        topo = Torus((2, 2))
        assign = [0, 1, 2, 3]
        loads = per_link_loads(tiny_graph, topo, assign)
        assert sum(loads.values()) == pytest.approx(hop_bytes(tiny_graph, topo, assign))


class TestDilationAndLoads:
    def test_dilation_stats(self, tiny_graph):
        topo = Mesh((4,))
        stats = dilation_stats(tiny_graph, topo, [0, 1, 2, 3])
        assert stats["max"] == 3.0
        assert stats["mean"] == pytest.approx((1 + 1 + 1 + 3) / 4)

    def test_dilation_empty(self):
        g = TaskGraph(2)
        assert dilation_stats(g, Mesh((2,)), [0, 1])["max"] == 0.0

    def test_processor_loads(self, tiny_graph):
        topo = Mesh((2, 2))
        loads = processor_loads(tiny_graph, topo, [0, 0, 1, 3])
        assert loads.tolist() == [3.0, 3.0, 0.0, 4.0]

    def test_load_imbalance_balanced(self):
        g = TaskGraph(4, [], vertex_weights=[1, 1, 1, 1])
        assert load_imbalance(g, Mesh((4,)), [0, 1, 2, 3]) == 1.0

    def test_load_imbalance_skewed(self):
        g = TaskGraph(4, [], vertex_weights=[4, 0, 0, 0])
        assert load_imbalance(g, Mesh((4,)), [0, 1, 2, 3]) == 4.0


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_property_permutation_of_processor_labels_by_automorphism(seed):
    """Translating every processor of a torus (an automorphism) preserves HB."""
    rng = np.random.default_rng(seed)
    topo = Torus((4, 4))
    g = random_taskgraph(16, edge_prob=0.3, seed=int(seed))
    assign = rng.permutation(16)
    shift = int(rng.integers(0, 16))
    coords = np.array([topo.coords(int(a)) for a in assign])
    dcoord = np.array(topo.coords(shift))
    translated = np.array(
        [topo.index(tuple((c + dcoord) % 4)) for c in coords]
    )
    assert hop_bytes(g, topo, assign) == pytest.approx(hop_bytes(g, topo, translated))


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_property_hop_bytes_scales_linearly_with_weights(seed):
    rng = np.random.default_rng(seed)
    g = random_taskgraph(12, edge_prob=0.4, seed=int(seed))
    scaled = TaskGraph(12, [(a, b, 3.5 * w) for a, b, w in g.edges()])
    topo = Mesh((3, 4))
    assign = rng.permutation(12)
    assert hop_bytes(scaled, topo, assign) == pytest.approx(
        3.5 * hop_bytes(g, topo, assign)
    )


# --------------------------------------------------------------------------
# Metric invariants over randomized graph x topology x assignment triples.
# All machines here route minimally (Mesh/Torus dimension-ordered routes and
# Hypercube bit-fixing routes have length == distance), which the link-load
# conservation identity requires.
_TOPOLOGIES = (
    Mesh((8,)),
    Mesh((4, 4)),
    Mesh((2, 3, 3)),
    Torus((4, 4)),
    Torus((2, 3, 3)),
    Hypercube(4),
)


@st.composite
def _metric_instances(draw):
    """(graph, topology, assignment) with many-to-one assignments allowed."""
    topo = draw(st.sampled_from(_TOPOLOGIES))
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    graph = random_taskgraph(n, edge_prob=0.35, seed=seed)
    assignment = draw(
        st.lists(st.integers(0, topo.num_nodes - 1), min_size=n, max_size=n)
    )
    return graph, topo, assignment


@given(_metric_instances())
@settings(max_examples=60, deadline=None)
def test_property_per_task_additivity(instance):
    """``per_task_hop_bytes(...).sum() / 2 == hop_bytes(...)`` always."""
    graph, topo, assignment = instance
    per_task = per_task_hop_bytes(graph, topo, assignment)
    assert per_task.sum() / 2 == pytest.approx(hop_bytes(graph, topo, assignment))


@given(_metric_instances())
@settings(max_examples=40, deadline=None)
def test_property_link_loads_conserve_hop_bytes(instance):
    """On minimal-routing machines every byte loads exactly d(u, v) links,
    so summed per-link loads equal hop-bytes."""
    graph, topo, assignment = instance
    loads = per_link_loads(graph, topo, assignment)
    assert sum(loads.values()) == pytest.approx(hop_bytes(graph, topo, assignment))
    assert all(v > 0 for v in loads.values())
