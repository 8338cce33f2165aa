"""Tests for the network simulator's link model and contention behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.mapping.kernels import KERNELS
from repro.netsim import NetworkSimulator, RoutingPolicy
from repro.topology import Mesh, Torus


def make_sim(kernel, **kw):
    defaults = dict(bandwidth=100.0, alpha=0.5, local_latency=0.05)
    defaults.update(kw)
    return NetworkSimulator(Mesh((8,)), **defaults, kernel=kernel)


class TestNoLoadLatency:
    def test_cut_through_formula(self, kernel):
        """Uncontended L-hop delivery = L*alpha + size/bandwidth."""
        sim = make_sim(kernel)
        msg = sim.send(0, 4, 200.0)  # 4 hops
        sim.run()
        assert msg.latency == pytest.approx(4 * 0.5 + 200.0 / 100.0)
        assert msg.hops == 4

    def test_local_message(self, kernel):
        sim = make_sim(kernel)
        msg = sim.send(3, 3, 1e9)  # size irrelevant on-node
        sim.run()
        assert msg.latency == pytest.approx(0.05)
        assert msg.hops == 0

    def test_latency_scales_with_bandwidth(self, kernel):
        lats = []
        for bw in (50.0, 100.0):
            sim = make_sim(kernel, bandwidth=bw)
            msg = sim.send(0, 1, 1000.0)
            sim.run()
            lats.append(msg.latency)
        assert lats[0] == pytest.approx(2 * lats[1] - 0.5)


class TestContention:
    def test_fifo_serialization_on_shared_link(self, kernel):
        """Two simultaneous messages over one link: second waits for first."""
        sim = make_sim(kernel)
        m1 = sim.send(0, 1, 100.0, at=0.0)
        m2 = sim.send(0, 1, 100.0, at=0.0)
        sim.run()
        assert m1.latency == pytest.approx(0.5 + 1.0)
        # m2 queues until m1's occupancy (alpha + serialization) ends.
        assert m2.deliver_time == pytest.approx(m1.deliver_time + 1.5)

    def test_fifo_order_preserved(self, kernel):
        sim = make_sim(kernel)
        order = []
        for i in range(5):
            sim.send(0, 2, 50.0, on_delivery=lambda m, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_disjoint_paths_do_not_interact(self, kernel):
        sim = NetworkSimulator(Mesh((2, 2)), bandwidth=100.0, alpha=0.5,
                               kernel=kernel)
        m1 = sim.send(0, 1, 100.0)
        m2 = sim.send(2, 3, 100.0)
        sim.run()
        assert m1.latency == pytest.approx(m2.latency)
        assert m1.latency == pytest.approx(1.5)

    def test_opposite_directions_are_independent_channels(self, kernel):
        sim = make_sim(kernel)
        m1 = sim.send(0, 1, 100.0)
        m2 = sim.send(1, 0, 100.0)
        sim.run()
        assert m1.latency == pytest.approx(1.5)
        assert m2.latency == pytest.approx(1.5)

    def test_congestion_grows_latency(self, kernel):
        """Many senders crossing one cut: mean latency far above no-load."""
        sim = make_sim(kernel)
        for _ in range(20):
            sim.send(0, 7, 1000.0)
        sim.run()
        no_load = 7 * 0.5 + 10.0
        assert sim.stats.mean_latency > 3 * no_load


class TestNicModel:
    def test_nic_serializes_fanout(self, kernel):
        """With a NIC, simultaneous sends to different partners serialize."""
        topo = Torus((4,))
        sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.0, nic_bandwidth=100.0,
                               kernel=kernel)
        m1 = sim.send(0, 1, 100.0)
        m2 = sim.send(0, 3, 100.0)  # other direction: different link, same NIC
        sim.run()
        assert abs(m1.deliver_time - m2.deliver_time) >= 1.0 - 1e-9

    def test_nic_channels_not_counted_as_hops(self, kernel):
        sim = NetworkSimulator(Mesh((4,)), bandwidth=100.0, nic_bandwidth=100.0,
                               kernel=kernel)
        msg = sim.send(0, 2, 100.0)
        sim.run()
        assert msg.hops == 2

    def test_nic_free_for_single_cutthrough_message(self, kernel):
        """Cut-through pipelines through the NIC: one uncontended message
        pays nothing extra (the NIC only matters under fan-out load)."""
        lat = []
        for nic in (None, 100.0):
            sim = NetworkSimulator(Mesh((4,)), bandwidth=100.0, alpha=0.5,
                                   nic_bandwidth=nic, kernel=kernel)
            msg = sim.send(0, 1, 100.0)
            sim.run()
            lat.append(msg.latency)
        assert lat[1] == pytest.approx(lat[0])


class TestHeterogeneousLinks:
    def test_slow_link_slows_serialization(self, kernel):
        sim = NetworkSimulator(Mesh((3,)), bandwidth=100.0, alpha=0.0,
                               link_bandwidths={(0, 1): 10.0}, kernel=kernel)
        slow = sim.send(0, 1, 100.0)
        fast = sim.send(1, 2, 100.0)
        sim.run()
        assert slow.latency == pytest.approx(10.0)
        assert fast.latency == pytest.approx(1.0)

    def test_override_applies_both_directions(self, kernel):
        sim = NetworkSimulator(Mesh((2,)), bandwidth=100.0, alpha=0.0,
                               link_bandwidths={(0, 1): 10.0}, kernel=kernel)
        back = sim.send(1, 0, 100.0)
        sim.run()
        assert back.latency == pytest.approx(10.0)

    def test_asymmetric_overrides(self, kernel):
        sim = NetworkSimulator(Mesh((2,)), bandwidth=100.0, alpha=0.0,
                               link_bandwidths={(0, 1): 10.0, (1, 0): 50.0},
                               kernel=kernel)
        fwd = sim.send(0, 1, 100.0)
        back = sim.send(1, 0, 100.0)
        sim.run()
        assert fwd.latency == pytest.approx(10.0)
        assert back.latency == pytest.approx(2.0)

    def test_bad_override_rejected(self, kernel):
        with pytest.raises(SimulationError):
            NetworkSimulator(Mesh((2,)), link_bandwidths={(0, 1): 0.0},
                             kernel=kernel)

    def test_link_bandwidths_endpoints_validated(self, kernel):
        topo = Torus((4, 4))
        with pytest.raises(SimulationError, match="not a link"):
            NetworkSimulator(topo, link_bandwidths={(0, 5): 1.0},
                             kernel=kernel)
        with pytest.raises(SimulationError, match="not a link"):
            NetworkSimulator(topo, link_bandwidths={(0, 99): 1.0},
                             kernel=kernel)
        # real links (either orientation) are accepted
        NetworkSimulator(topo, link_bandwidths={(0, 1): 1.0, (4, 0): 2.0},
                         kernel=kernel)


class TestValidation:
    def test_bad_bandwidth(self, kernel):
        with pytest.raises(SimulationError):
            NetworkSimulator(Mesh((4,)), bandwidth=0.0, kernel=kernel)

    def test_bad_nic_bandwidth(self, kernel):
        with pytest.raises(SimulationError):
            NetworkSimulator(Mesh((4,)), nic_bandwidth=-1.0, kernel=kernel)

    def test_bad_alpha(self, kernel):
        with pytest.raises(SimulationError):
            NetworkSimulator(Mesh((4,)), alpha=-0.1, kernel=kernel)

    def test_bad_message_size(self, kernel):
        sim = make_sim(kernel)
        with pytest.raises(SimulationError):
            sim.send(0, 1, 0.0)


class TestRejectedSend:
    """A send into the past raises before the message exists: nothing is
    left in flight or counted, and both bodies carry on identically."""

    @staticmethod
    def _run_after_rejected_send(kernel):
        from repro import obs

        with obs.profiled() as prof:
            sim = NetworkSimulator(Torus((4, 4)), stall_window=50.0,
                                   kernel=kernel)
            sim.send(0, 5, 100.0, at=10.0)
            sim.run()
            before = (sim.in_flight, dict(prof.counters), sim.stats.snapshot())
            for src, dst in ((0, 5), (3, 3)):  # remote and local
                with pytest.raises(SimulationError, match="causality"):
                    sim.send(src, dst, 100.0, at=1.0)
            after = (sim.in_flight, dict(prof.counters), sim.stats.snapshot())
            msg = sim.send(1, 2, 10.0)
            end = sim.run()
        return before, after, msg.msg_id, end, sim.stats.snapshot()

    def test_nothing_left_in_flight(self, kernel):
        before, after, msg_id, _, _ = self._run_after_rejected_send(kernel)
        assert after == before
        assert before[0] == 0
        assert msg_id == 1

    def test_bodies_finish_the_same_way(self):
        runs = [self._run_after_rejected_send(k)[2:] for k in KERNELS]
        assert runs[0] == runs[1]


class TestStats:
    def test_message_accounting(self, kernel):
        sim = make_sim(kernel)
        sim.send(0, 3, 100.0)
        sim.send(1, 2, 50.0)
        sim.run()
        assert sim.stats.count == 2
        assert sim.stats.total_bytes == 150.0
        assert sim.stats.hops_per_byte == pytest.approx((100 * 3 + 50 * 1) / 150)

    def test_latency_summary(self, kernel):
        sim = make_sim(kernel)
        for i in range(10):
            sim.send(0, 1 + (i % 3), 100.0)
        sim.run()
        lat = sim.stats.latencies()
        assert len(lat) == 10
        p50, p95 = np.percentile(lat, [50, 95])
        assert p50 <= p95 <= lat.max() == sim.stats.max_latency

    def test_link_utilization_range(self, kernel):
        sim = make_sim(kernel)
        for _ in range(5):
            sim.send(0, 7, 500.0)
        sim.run()
        util = np.asarray(list(sim.link_busy_times().values())) / sim.now
        assert 0.0 < util.mean() <= util.max() + 1e-9
        assert util.max() <= 1.0 + 1e-9

    def test_link_bytes_conservation(self, kernel):
        sim = make_sim(kernel)
        sim.send(0, 3, 100.0)
        sim.run()
        total = sum(sim.link_bytes().values())
        assert total == pytest.approx(300.0)  # 100 bytes x 3 links

    def test_empty_stats(self, kernel):
        sim = make_sim(kernel)
        assert len(sim.stats.latencies()) == 0
        assert sim.stats.mean_latency == 0.0
        assert sim.stats.max_latency == 0.0

    def test_delivery_arrays_keep_order_across_chunks(self):
        """Recorded and extended deliveries read back in order, as one
        read-only array built once per change."""
        from repro.netsim.messages import Message, MessageStats

        stats = MessageStats()
        msg = Message(0, 0, 1, 8.0, 0.0, deliver_time=1.5)
        stats.record(msg)
        stats.extend(np.array([2.0, 3.0]), np.array([4.0, 5.0]), 17.0, 0.0)
        stats.record(msg)
        lat = stats.latencies()
        assert lat.tolist() == [1.5, 2.0, 3.0, 1.5]
        assert stats.sizes().tolist() == [8.0, 4.0, 5.0, 8.0]
        assert stats.latencies() is lat and not lat.flags.writeable
        stats.extend(np.array([0.5]), np.array([1.0]), 26.0, 0.0)
        assert stats.latencies().tolist() == [1.5, 2.0, 3.0, 1.5, 0.5]
        assert stats.count == 5 and stats.max_latency == 3.0

    def test_undelivered_latency_raises(self, kernel):
        sim = make_sim(kernel)
        msg = sim.send(0, 5, 10.0)
        with pytest.raises(ValueError):
            _ = msg.latency


def _uniform_poisson_latency(sim, offered_load, message_bytes, duration,
                             seed):
    """Mean latency of uniform-random Poisson traffic: each node injects
    ``offered_load * bandwidth / message_bytes`` messages per microsecond
    for ``duration`` microseconds (self-sends skipped)."""
    rng = np.random.default_rng(seed)
    nodes = sim.topology.num_nodes
    rate = offered_load * sim.bandwidth / message_bytes
    for src in range(nodes):
        t = float(rng.exponential(1.0 / rate))
        while t < duration:
            dst = int(rng.integers(0, nodes))
            if dst != src:
                sim.send(src, dst, message_bytes, at=t)
            t += float(rng.exponential(1.0 / rate))
    sim.run()
    return sim.stats.mean_latency


class TestAdaptiveRouting:
    def test_adaptive_never_lengthens_routes(self, kernel):
        """Adaptive candidates are all minimal: observed hops == distance."""
        topo = Torus((4, 4))
        sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.1,
                               routing=RoutingPolicy.ADAPTIVE, kernel=kernel)
        msgs = [sim.send(0, 15, 100.0) for _ in range(10)]
        sim.run()
        for m in msgs:
            assert m.hops == topo.distance(0, 15)

    def test_adaptive_helps_under_congestion(self, kernel):
        topo = Torus((4, 4, 4))
        lat = {}
        for routing in RoutingPolicy:
            sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.1,
                                   routing=routing, kernel=kernel)
            lat[routing] = _uniform_poisson_latency(
                sim, 0.8, message_bytes=256.0, duration=400.0, seed=0)
        assert lat[RoutingPolicy.ADAPTIVE] < lat[RoutingPolicy.DOR]

    def test_adaptive_equals_dor_on_1d(self, kernel):
        """One axis: a single minimal route exists, policies coincide."""
        topo = Torus((8,))
        lat = {}
        for routing in RoutingPolicy:
            sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.1,
                                   routing=routing, kernel=kernel)
            lat[routing] = _uniform_poisson_latency(
                sim, 0.4, message_bytes=128.0, duration=200.0, seed=0)
        assert lat[RoutingPolicy.ADAPTIVE] == pytest.approx(lat[RoutingPolicy.DOR])

    def test_deterministic(self, kernel):
        topo = Torus((4, 4))
        results = []
        for _ in range(2):
            sim = NetworkSimulator(topo, bandwidth=50.0, alpha=0.1,
                                   routing=RoutingPolicy.ADAPTIVE,
                                   kernel=kernel)
            results.append(_uniform_poisson_latency(
                sim, 0.5, message_bytes=128.0, duration=200.0, seed=7))
        assert results[0] == results[1]


@given(
    seed=st.integers(0, 100_000),
    n_msgs=st.integers(1, 25),
)
@settings(max_examples=40, deadline=None)
def test_property_latency_at_least_no_load(seed, n_msgs, kernel):
    """Causality: no message beats its own no-load latency; all deliver."""
    topo = Torus((3, 3))
    sim = NetworkSimulator(topo, bandwidth=50.0, alpha=0.3, kernel=kernel)
    rng = np.random.default_rng(seed)
    msgs = []
    for _ in range(n_msgs):
        a, b = (int(x) for x in rng.integers(0, 9, size=2))
        msgs.append(sim.send(a, b, float(rng.uniform(1, 500)), at=float(rng.uniform(0, 5))))
    sim.run()
    for m in msgs:
        assert m.deliver_time is not None
        if m.hops == 0:
            continue
        no_load = m.hops * 0.3 + m.size_bytes / 50.0
        assert m.latency >= no_load - 1e-9
