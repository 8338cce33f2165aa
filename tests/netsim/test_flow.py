"""Flow-level contention estimator vs the DES and the metrics oracles.

Three layers of evidence pin :mod:`repro.netsim.flow`:

* **exactness** — the grid fast path's per-link loads
  (:meth:`~repro.netsim.flow.FlowResult.link_loads`) equal the
  route-walking oracle (:func:`repro.mapping.metrics.per_link_loads`) and
  the DES's measured ``link_bytes`` key-for-key, value-for-value, and the
  scalars are pinned bit for bit;
* **the bound** — ``makespan_lower_bound`` never exceeds the DES
  ``total_time`` on the same instance (property-tested over random
  graphs, mappings, bandwidths and latencies);
* **the ranking** — Spearman rank correlation of flow vs DES makespans
  across a mapping pool stays >= 0.9 on the pinned validation instances
  (the envelope the engine's ``flow_*`` metrics advertise).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import mapper_from_spec
from repro.exceptions import SimulationError
from repro.mapping import _native
from repro.mapping.base import Mapping
from repro.mapping.metrics import per_link_loads
from repro.netsim import NetworkSimulator
from repro.netsim.appsim import IterativeApplication
from repro.netsim.flow import (
    FlowResult,
    _generic_link_loads,
    _grid_link_loads,
    flow_evaluate,
    spearman,
)
from repro.taskgraph import mesh2d_pattern, random_taskgraph
from repro.taskgraph.leanmd import leanmd_taskgraph
from repro.taskgraph.patterns import mesh3d_pattern, ring_pattern
from repro.topology import FatTree, Hypercube, Mesh, Torus

GRID_CASES = [
    ("torus6x6", mesh2d_pattern(6, 6, message_bytes=512.0), Torus((6, 6))),
    ("torus5x7-odd", random_taskgraph(35, edge_prob=0.2, seed=3),
     Torus((5, 7))),
    ("mesh4x4x4", mesh3d_pattern(4, 4, 4, message_bytes=256.0),
     Mesh((4, 4, 4))),
    ("torus4x3x2", random_taskgraph(24, edge_prob=0.3, seed=8),
     Torus((4, 3, 2))),
    ("ring-on-mesh", ring_pattern(12, message_bytes=128.0), Mesh((3, 4))),
]


def _mapping(graph, topo, seed=0):
    rng = np.random.default_rng(seed)
    return Mapping(graph, topo, rng.permutation(topo.num_nodes)[:graph.num_tasks])


class TestGridExactness:
    @pytest.mark.parametrize("label,graph,topo", GRID_CASES,
                             ids=[c[0] for c in GRID_CASES])
    @pytest.mark.parametrize("seed", (0, 1))
    def test_link_loads_match_route_oracle(self, label, graph, topo, seed):
        """The difference-array fast path equals walking every route."""
        mapping = _mapping(graph, topo, seed)
        loads = flow_evaluate(mapping).link_loads()
        oracle = per_link_loads(graph, topo, mapping.assignment)
        assert loads.keys() == oracle.keys()
        for link, load in oracle.items():
            assert loads[link] == pytest.approx(load), (label, link)

    @pytest.mark.parametrize("label,graph,topo", GRID_CASES[:3],
                             ids=[c[0] for c in GRID_CASES[:3]])
    def test_grid_path_matches_generic_path(self, label, graph, topo):
        """Same module, two algorithms: fast path == route-walking fallback."""
        from repro.netsim.flow import _directed_messages

        mapping = _mapping(graph, topo, seed=5)
        src, dst, sizes = _directed_messages(mapping, None)
        remote = src != dst
        fast = flow_evaluate(mapping)
        slow_src, slow_dst, slow_bytes, slow_msgs = _generic_link_loads(
            topo, src[remote], dst[remote], sizes[remote])

        def by_link(tails, heads, *columns):
            return dict(zip(zip(tails.tolist(), heads.tolist()),
                            zip(*(c.tolist() for c in columns))))

        got = by_link(fast.src, fast.dst, fast.bytes, fast.messages)
        want = by_link(slow_src, slow_dst, slow_bytes, slow_msgs)
        assert got.keys() == want.keys()
        for link, (load, count) in want.items():
            assert got[link][0] == pytest.approx(load)
            assert got[link][1] == count

    def test_conservation_total_is_hop_bytes(self):
        """Bytes-on-links summed over links == the hop-bytes metric."""
        graph, topo = mesh2d_pattern(6, 6, message_bytes=512.0), Torus((6, 6))
        mapping = _mapping(graph, topo, seed=2)
        flow = flow_evaluate(mapping, iterations=3)
        assert sum(flow.link_loads().values()) == pytest.approx(
            mapping.hop_bytes)
        assert flow.total_bytes == pytest.approx(3 * mapping.hop_bytes)

    def test_matches_des_link_bytes(self):
        """Offered load == what the DES actually pushed through each link."""
        graph, topo = mesh2d_pattern(6, 6, message_bytes=512.0), Torus((6, 6))
        mapping = mapper_from_spec("topocentlb", 0).map(graph, topo)
        iters = 2
        sim = NetworkSimulator(topo)
        IterativeApplication(mapping, sim, iterations=iters).run()
        des = sim.link_bytes()
        loads = flow_evaluate(mapping, iterations=iters).link_loads()
        assert loads.keys() == des.keys()
        for link, measured in des.items():
            assert loads[link] * iters == pytest.approx(measured)


#: Exact scalars of ``flow_evaluate(mapping, iterations=3)``: links_used,
#: then ``float.hex()`` of max_link_bytes, total_bytes, makespan_lower_bound
#: and bottleneck_time_us. Every instance has fractional edge weights, so a
#: change in the order the per-link loads are summed shows up here.
EXACT_CASES = [
    ("leanmd512-randomlb-torus8x8x8",
     lambda: mapper_from_spec("RandomLB", 0).map(leanmd_taskgraph(512),
                                                 Torus((8, 8, 8))),
     (3070, "0x1.ffdbbbb0747c5p+19", "0x1.a57cde11ae210p+29",
      "0x1.0c38b20454378p+10", "0x1.65a0ed5b1af4ap+8")),
    ("random24-torus4x3x2",  # a size-2 axis: both directions reach one node
     lambda: _mapping(random_taskgraph(24, edge_prob=0.3, seed=8),
                      Torus((4, 3, 2)), seed=1),
     (118, "0x1.c42c747d4aacap+15", "0x1.12180e5643a9dp+20",
      "0x1.d8a035bfc9650p+5", "0x1.3b15792a86435p+4")),
    ("random48-mesh4x4x3",
     lambda: _mapping(random_taskgraph(48, edge_prob=0.15, seed=5),
                      Mesh((4, 4, 3)), seed=2),
     (208, "0x1.3f4746cc4a32dp+15", "0x1.a8baa964777d6p+21",
      "0x1.6a8ee89009daep+5", "0x1.e369361562793p+3")),
    ("random64-fattree4x3",  # the generic path
     lambda: _mapping(random_taskgraph(64, edge_prob=0.1, seed=4),
                      FatTree(4, 3), seed=3),
     (272, "0x1.6572afdc2a050p+16", "0x1.75ebe3538ea40p+22",
      "0x1.90d3a5bea1cfep+6", "0x1.0b37c3d46bdffp+5")),
]


@pytest.mark.parametrize("label,make,pinned", EXACT_CASES,
                         ids=[c[0] for c in EXACT_CASES])
def test_flow_scalars_are_pinned_exactly(label, make, pinned):
    """The estimator's scalars are bit-exact, not merely close."""
    flow = flow_evaluate(make(), iterations=3)
    got = (flow.links_used, flow.max_link_bytes.hex(), flow.total_bytes.hex(),
           flow.makespan_lower_bound.hex(), flow.bottleneck_time_us.hex())
    assert got == pinned, label


@pytest.mark.parametrize("label,make,pinned", EXACT_CASES,
                         ids=[c[0] for c in EXACT_CASES])
def test_each_directed_link_appears_once(label, make, pinned):
    flow = flow_evaluate(make())
    links = set(zip(flow.src.tolist(), flow.dst.tolist()))
    assert len(links) == flow.links_used == len(flow.bytes) \
        == len(flow.messages), label
    assert (flow.messages > 0).all() and (flow.bytes > 0).all(), label


def _assert_compiled_link_loads_match(topo, src, dst, sizes):
    """``grid_link_loads`` against ``_grid_link_loads``: the same links in
    the same order, with bit-identical loads and the same dtypes."""
    native = _native.load()
    if native is None:
        pytest.skip("no C compiler on this host")
    got = native.grid_link_loads(topo, src, dst, sizes)
    want = _grid_link_loads(topo, src, dst, sizes)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def grid_traffic(draw):
    """A mesh or torus of 1-3 axes (extents 1-6, so size-1 and size-2 axes
    occur) and up to 80 messages, co-located ones included. The sizes are
    fractional, so the order in which the start, cut and wrap terms reach
    one position changes the rounding."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    topo = draw(st.sampled_from([Mesh, Torus]))(shape)
    m = draw(st.integers(0, 80))
    nodes = st.lists(st.integers(0, topo.num_nodes - 1), min_size=m, max_size=m)
    sizes = st.lists(st.sampled_from([0.1, 1 / 3, 0.7, 2.5, 1e-3, 1e6 + 0.1]),
                     min_size=m, max_size=m)
    return (topo, np.array(draw(nodes), dtype=np.int64),
            np.array(draw(nodes), dtype=np.int64), np.array(draw(sizes)))


@given(grid_traffic())
@settings(max_examples=min(150, settings().max_examples), deadline=None)
def test_compiled_link_loads_match_reference(case):
    _assert_compiled_link_loads_match(*case)


@pytest.mark.parametrize("graph,topo", [
    (leanmd_taskgraph(512), Torus((8, 8, 8))),
    (mesh3d_pattern(8, 8, 8, message_bytes=4096.0), Torus((8, 8, 8))),
    (random_taskgraph(200, edge_prob=0.05, seed=2), Mesh((4, 5, 6))),
], ids=["leanmd-torus8x8x8", "mesh3d-torus8x8x8", "random200-mesh4x5x6"])
def test_compiled_link_loads_match_reference_at_scale(graph, topo):
    """The paper-scale inputs, placed at random, with their sizes made
    fractional: thousands of runs share each difference-array position."""
    rng = np.random.default_rng(7)
    u, v, w = graph.edge_arrays()
    assign = rng.integers(0, topo.num_nodes, graph.num_tasks)
    _assert_compiled_link_loads_match(
        topo, np.concatenate((assign[u], assign[v])),
        np.concatenate((assign[v], assign[u])), np.concatenate((w, w)) / 3.0 + 0.1)


class TestGenericFallback:
    def _topologies(self):
        from repro.topology import ArbitraryTopology

        ring_plus_chord = ArbitraryTopology(
            8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
        return [("hypercube5", Hypercube(5)),
                ("irregular8", ring_plus_chord)]

    def test_non_grid_topologies_match_route_oracle(self):
        for label, topo in self._topologies():
            graph = random_taskgraph(topo.num_nodes, edge_prob=0.15, seed=4)
            mapping = _mapping(graph, topo, seed=1)
            loads = flow_evaluate(mapping).link_loads()
            oracle = per_link_loads(graph, topo, mapping.assignment)
            assert loads.keys() == oracle.keys(), label
            for link, load in oracle.items():
                assert loads[link] == pytest.approx(load), label

    def test_indirect_networks_match_route_oracle(self):
        """Fat-tree and dragonfly routes run over switch links; the flow
        estimator charges exactly the per_link_loads oracle's loads."""
        from repro.topology import Dragonfly

        for label, topo in (("fattree4x3", FatTree(4, 3)),
                            ("dragonfly", Dragonfly(4, 4, 2))):
            graph = random_taskgraph(topo.num_nodes, edge_prob=0.2, seed=4)
            mapping = _mapping(graph, topo, seed=1)
            loads = flow_evaluate(mapping).link_loads()
            oracle = per_link_loads(graph, topo, mapping.assignment)
            assert loads.keys() == oracle.keys(), label
            for link, load in oracle.items():
                assert loads[link] == pytest.approx(load), label

    def test_indirect_network_flow_matches_des_link_bytes(self):
        """DES ≡ flow on an indirect machine: the per-switch-link bytes the
        DES actually forwarded equal the flow estimator's offered load."""
        from repro.topology import Dragonfly

        for label, topo in (("fattree2x3", FatTree(2, 3)),
                            ("dragonfly", Dragonfly(3, 2, 2))):
            graph = random_taskgraph(topo.num_nodes, edge_prob=0.4, seed=7)
            mapping = _mapping(graph, topo, seed=3)
            iters = 2
            sim = NetworkSimulator(topo)
            IterativeApplication(mapping, sim, iterations=iters).run()
            des = sim.link_bytes()
            loads = flow_evaluate(mapping, iterations=iters).link_loads()
            assert loads.keys() == des.keys(), label
            for link, measured in des.items():
                assert loads[link] * iters == pytest.approx(measured), label


class TestMakespanLowerBound:
    @given(
        seed=st.integers(0, 10_000),
        bandwidth=st.sampled_from((20.0, 100.0, 1000.0)),
        alpha=st.sampled_from((0.0, 0.1, 0.5)),
        iterations=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_bound_below_des(self, seed, bandwidth, alpha,
                                      iterations):
        """flow makespan <= DES total_time for random instances/parameters."""
        rng = np.random.default_rng(seed)
        graph = random_taskgraph(12, edge_prob=0.3, seed=seed)
        topo = Torus((3, 4))
        mapping = Mapping(graph, topo, rng.permutation(12))
        sim = NetworkSimulator(topo, bandwidth=bandwidth, alpha=alpha)
        res = IterativeApplication(mapping, sim, iterations=iterations).run()
        flow = flow_evaluate(mapping, iterations=iterations,
                             bandwidth=bandwidth, alpha=alpha)
        assert flow.makespan_lower_bound <= res.total_time * (1 + 1e-9)

    def test_bound_tight_when_uncontended(self):
        """With nothing to queue behind, one iteration's bound (compute +
        slowest no-load delivery) IS the DES answer exactly; over several
        iterations the DES re-pays the delivery latency per round while the
        bound only charges it once, so the ratio stays close to 1 but the
        inequality is strict."""
        graph = ring_pattern(64, message_bytes=64.0)
        topo = Torus((8, 8))
        mapping = mapper_from_spec("topolb", 0).map(graph, topo)

        sim = NetworkSimulator(topo)
        one = IterativeApplication(mapping, sim, iterations=1).run()
        assert flow_evaluate(mapping).makespan_lower_bound \
            == pytest.approx(one.total_time)

        sim = NetworkSimulator(topo)
        five = IterativeApplication(mapping, sim, iterations=5).run()
        bound = flow_evaluate(mapping, iterations=5).makespan_lower_bound
        assert 0.85 * five.total_time <= bound <= five.total_time


class TestRankCorrelation:
    """Pinned validity-envelope fixtures behind the ``flow_*`` metrics."""

    FIXTURES = [
        ("jacobi6x6-torus6x6",
         lambda: mesh2d_pattern(6, 6, message_bytes=512.0), Torus((6, 6)),
         1000.0),
        ("jacobi8x8-torus4x4x4",
         lambda: mesh2d_pattern(8, 8, message_bytes=512.0), Torus((4, 4, 4)),
         50.0),  # congested regime: low bandwidth
    ]

    @pytest.mark.parametrize("label,make_graph,topo,bandwidth", FIXTURES,
                             ids=[f[0] for f in FIXTURES])
    def test_flow_ranks_mappings_like_des(self, label, make_graph, topo,
                                          bandwidth):
        graph = make_graph()
        rng = np.random.default_rng(17)
        pool = [mapper_from_spec(spec, 0).map(graph, topo)
                for spec in ("topolb", "topocentlb", "random")]
        pool += [_mapping(graph, topo, seed=int(s))
                 for s in rng.integers(0, 10_000, size=5)]
        des, flow = [], []
        for mapping in pool:
            sim = NetworkSimulator(topo, bandwidth=bandwidth)
            res = IterativeApplication(mapping, sim, iterations=4).run()
            des.append(res.total_time)
            flow.append(flow_evaluate(mapping, iterations=4,
                                      bandwidth=bandwidth).makespan_lower_bound)
        assert spearman(flow, des) >= 0.9, label


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [1, 8, 27, 64]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        # scipy.stats.spearmanr([1, 2, 2, 3], [1, 2, 3, 4]) == 0.9486832...
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
            0.9486832980505138)

    def test_degenerate_inputs(self):
        assert spearman([5.0], [7.0]) == 1.0
        assert spearman([2, 2, 2], [1, 5, 9]) == 1.0  # zero variance

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


class TestResultSurface:
    def _flow(self, iterations=2):
        graph, topo = mesh2d_pattern(4, 4, message_bytes=256.0), Torus((4, 4))
        return flow_evaluate(_mapping(graph, topo, seed=0),
                             iterations=iterations)

    def test_empty_traffic(self):
        from repro.taskgraph import TaskGraph

        graph = TaskGraph(4, [])  # no edges -> no traffic at all
        topo = Torus((2, 2))
        flow = flow_evaluate(_mapping(graph, topo))
        assert flow.links_used == 0
        assert flow.total_bytes == 0.0

    def test_parameter_validation(self):
        graph, topo = mesh2d_pattern(4, 4), Torus((4, 4))
        mapping = _mapping(graph, topo)
        with pytest.raises(SimulationError):
            flow_evaluate(mapping, iterations=0)
        with pytest.raises(SimulationError):
            flow_evaluate(mapping, bandwidth=0.0)
        with pytest.raises(SimulationError):
            flow_evaluate(mapping, message_bytes=-1.0)
        with pytest.raises(SimulationError):
            flow_evaluate(mapping, alpha=-0.1)

    def test_result_type(self):
        assert isinstance(self._flow(), FlowResult)
