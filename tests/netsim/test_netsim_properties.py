"""Property-based tests of simulator invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import NetworkSimulator, RoutingPolicy
from repro.topology import Mesh, Torus


@given(
    seed=st.integers(0, 100_000),
    n_msgs=st.integers(1, 30),
    routing=st.sampled_from(list(RoutingPolicy)),
)
@settings(max_examples=40, deadline=None)
def test_property_all_messages_delivered_exactly_once(seed, n_msgs, routing,
        kernel):
    """Conservation: every sent message is delivered exactly once, and the
    delivered byte total matches the injected byte total."""
    topo = Torus((3, 4))
    sim = NetworkSimulator(topo, bandwidth=80.0, alpha=0.2, routing=routing,
                           kernel=kernel)
    rng = np.random.default_rng(seed)
    delivered = []
    total_sent = 0.0
    for _ in range(n_msgs):
        a, b = (int(x) for x in rng.integers(0, 12, size=2))
        size = float(rng.uniform(1, 400))
        total_sent += size
        sim.send(a, b, size, at=float(rng.uniform(0, 10)),
                 on_delivery=lambda m: delivered.append(m.msg_id))
    sim.run()
    assert len(delivered) == n_msgs
    assert len(set(delivered)) == n_msgs
    assert sim.stats.total_bytes == pytest.approx(total_sent)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_property_adaptive_routes_always_minimal(seed, kernel):
    """Whatever route adaptivity picks, observed hops == shortest distance."""
    topo = Torus((4, 4))
    sim = NetworkSimulator(topo, bandwidth=40.0, alpha=0.1,
                           routing=RoutingPolicy.ADAPTIVE, kernel=kernel)
    rng = np.random.default_rng(seed)
    msgs = []
    for _ in range(20):
        a, b = (int(x) for x in rng.integers(0, 16, size=2))
        msgs.append((sim.send(a, b, float(rng.uniform(10, 200))), a, b))
    sim.run()
    for msg, a, b in msgs:
        assert msg.hops == topo.distance(a, b)


@given(seed=st.integers(0, 50_000))
@settings(max_examples=30, deadline=None)
def test_property_link_bytes_match_hop_bytes(seed, kernel):
    """Sum of per-link carried bytes == sum over messages of size * hops."""
    topo = Mesh((2, 5))
    sim = NetworkSimulator(topo, bandwidth=60.0, alpha=0.1, kernel=kernel)
    rng = np.random.default_rng(seed)
    expected = 0.0
    for _ in range(15):
        a, b = (int(x) for x in rng.integers(0, 10, size=2))
        size = float(rng.uniform(1, 100))
        msg = sim.send(a, b, size)
        sim.run()
        expected += size * msg.hops
    assert sum(sim.link_bytes().values()) == pytest.approx(expected)


@given(seed=st.integers(0, 50_000), scale=st.floats(1.5, 10.0))
@settings(max_examples=25, deadline=None)
def test_property_bandwidth_scaling_uncontended(seed, scale, kernel):
    """One message alone: delivery time strictly improves with bandwidth.

    Per-message monotonicity does NOT hold under contention — faster links
    reorder FIFO queueing, and an individual message can be delivered
    *later* on the faster machine (seed 83 is a concrete counterexample:
    message 0 arrives at t=4.18 with bandwidth 50 but t=5.25 with 100). So
    the per-message claim is only tested uncontended; the contended
    aggregate claim is the makespan property below.
    """
    topo = Torus((3, 3))
    rng = np.random.default_rng(seed)
    a, b = (int(x) for x in rng.integers(0, 9, size=2))
    size = float(rng.uniform(10, 500))
    times = {}
    for bw in (50.0, 50.0 * scale):
        sim = NetworkSimulator(topo, bandwidth=bw, alpha=0.2, kernel=kernel)
        msg = sim.send(a, b, size)
        sim.run()
        times[bw] = msg.deliver_time
    assert times[50.0 * scale] <= times[50.0] + 1e-9


@given(seed=st.integers(0, 50_000), scale=st.floats(1.5, 10.0))
@settings(max_examples=25, deadline=None)
def test_property_bandwidth_scaling_makespan(seed, scale, kernel):
    """Contended traffic: the *last* delivery never gets later with more
    bandwidth, and total link-busy time shrinks by exactly the scale factor
    (both hold even though individual deliveries may reorder)."""
    topo = Torus((3, 3))
    rng = np.random.default_rng(seed)
    plan = [
        (int(rng.integers(0, 9)), int(rng.integers(0, 9)),
         float(rng.uniform(10, 500)), float(rng.uniform(0, 5)))
        for _ in range(12)
    ]
    ends, busy = {}, {}
    for bw in (50.0, 50.0 * scale):
        sim = NetworkSimulator(topo, bandwidth=bw, alpha=0.2, kernel=kernel)
        msgs = [sim.send(a, b, s, at=t) for a, b, s, t in plan]
        end = sim.run()
        ends[bw] = max(m.deliver_time for m in msgs)
        busy[bw] = sum(
            m.size_bytes * m.hops / bw for m in msgs
        )  # serialization work carried by the links
        assert end >= ends[bw] - 1e-9
    assert ends[50.0 * scale] <= ends[50.0] + 1e-9
    assert busy[50.0 * scale] == pytest.approx(busy[50.0] / scale)
