"""Property-based invariants of the finite-buffer link model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.base import Mapping
from repro.netsim import NetworkSimulator, RoutingPolicy
from repro.netsim.appsim import IterativeApplication
from repro.netsim.flow import flow_evaluate
from repro.taskgraph import mesh2d_pattern
from repro.topology import Mesh, Torus


def _seeded_traffic(sim, seed, n_msgs, nodes, max_size=400.0):
    rng = np.random.default_rng(seed)
    for _ in range(n_msgs):
        a, b = (int(x) for x in rng.integers(0, nodes, size=2))
        sim.send(a, b, float(rng.uniform(1, max_size)),
                 at=float(rng.uniform(0, 10)))


@given(
    seed=st.integers(0, 100_000),
    n_msgs=st.integers(1, 30),
    routing=st.sampled_from(list(RoutingPolicy)),
)
@settings(max_examples=40, deadline=None)
def test_property_none_bit_identical_to_huge_buffer(seed, n_msgs, routing,
        kernel):
    """``buffer_bytes=None`` (the seed's infinite model) and a buffer large
    enough to never fill must produce bit-identical runs under every
    routing policy: the buffered code path is a strict extension, not a
    perturbation."""
    def run(**kwargs):
        sim = NetworkSimulator(Torus((3, 4)), bandwidth=80.0, alpha=0.2,
                               routing=routing, **kwargs, kernel=kernel)
        _seeded_traffic(sim, seed, n_msgs, 12)
        end = sim.run()
        return end, sim.stats.snapshot()

    assert run() == run(buffer_bytes=1e9)


@given(
    seed=st.integers(0, 100_000),
    n_msgs=st.integers(1, 30),
    routing=st.sampled_from(list(RoutingPolicy)),
    nic_bandwidth=st.floats(10.0, 500.0),
)
@settings(max_examples=40, deadline=None)
def test_property_drained_run_empties_every_buffer(seed, n_msgs, routing,
                                                   nic_bandwidth, kernel):
    """After a drained run no channel holds buffered bytes — NIC channels
    included, which queue without buffer admission and so must never be
    debited for the bytes that leave them."""
    sim = NetworkSimulator(Torus((3, 4)), bandwidth=80.0, routing=routing,
                           nic_bandwidth=nic_bandwidth, buffer_bytes=1e6,
                           kernel=kernel)
    _seeded_traffic(sim, seed, n_msgs, 12)
    sim.run()
    assert sim.in_flight == 0
    # (channel, busy, bytes, max_queue, buffered) per used channel
    for channel, *_, buffered in sim._link_rows():
        assert buffered == pytest.approx(0.0, abs=1e-6), channel


@given(
    seed=st.integers(0, 100_000),
    n_msgs=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_property_drop_mode_conserves_messages(seed, n_msgs, kernel):
    """Tail-drop partitions traffic exactly: every message is either
    delivered exactly once or recorded as dropped — delivered + dropped ==
    sent, no duplicates from the retransmit path, nothing left in flight."""
    delivered = []
    sim = NetworkSimulator(Torus((3, 4)), bandwidth=20.0,
                           buffer_bytes=700.0, max_retries=2, unroutable_policy="drop",
                           kernel=kernel)
    rng = np.random.default_rng(seed)
    for _ in range(n_msgs):
        a, b = (int(x) for x in rng.integers(0, 12, size=2))
        sim.send(a, b, float(rng.uniform(1, 600)),
                 at=float(rng.uniform(0, 5)),
                 on_delivery=lambda m: delivered.append(m.msg_id))
    sim.run()
    assert len(delivered) == len(set(delivered))
    assert len(delivered) == sim.stats.count
    assert sim.stats.count + sim.stats.dropped == n_msgs
    assert sim.in_flight == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_property_flow_bound_below_buffered_des(seed, kernel):
    """The flow estimator's makespan lower bound assumes ideal (infinite)
    buffering; finite buffers only add delay (retransmits), so the bound
    must still hold."""
    rng = np.random.default_rng(seed)
    # Fixed 4KiB messages; the random placement is what varies the
    # contention.
    graph = mesh2d_pattern(4, 4, message_bytes=4096.0)
    topo = Mesh((4, 4))
    mapping = Mapping(graph, topo, rng.permutation(16))
    sim = NetworkSimulator(topo, bandwidth=100.0, buffer_bytes=8192.0,
                           max_retries=64,
                           unroutable_policy="drop", kernel=kernel)
    res = IterativeApplication(mapping, sim, iterations=2).run()
    flow = flow_evaluate(mapping, iterations=2, bandwidth=100.0)
    assert flow.makespan_lower_bound <= res.total_time * (1 + 1e-9)
