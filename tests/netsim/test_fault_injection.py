"""Network-simulator fault injection: retries, reroutes, drops, determinism."""

import numpy as np
import pytest

from repro import obs
from repro.exceptions import SimulationError
from repro.faults import DegradedTopology, FaultSet
from repro.netsim.simulator import NetworkSimulator
from repro.topology.torus import Torus


@pytest.fixture()
def profiler():
    prof = obs.enable()
    yield prof
    obs.disable()


def _counters(prof):
    return prof.snapshot().get("counters", {})


class TestConstruction:
    def test_link_bandwidths_endpoints_validated(self):
        topo = Torus((4, 4))
        with pytest.raises(SimulationError, match="not a link"):
            NetworkSimulator(topo, link_bandwidths={(0, 5): 1.0})
        with pytest.raises(SimulationError, match="not a link"):
            NetworkSimulator(topo, link_bandwidths={(0, 99): 1.0})
        # real links (either orientation) are accepted
        NetworkSimulator(topo, link_bandwidths={(0, 1): 1.0, (4, 0): 2.0})

    def test_fault_params_validated(self):
        topo = Torus((4, 4))
        with pytest.raises(SimulationError):
            NetworkSimulator(topo, max_retries=-1)
        with pytest.raises(SimulationError):
            NetworkSimulator(topo, retry_delay=0.0)
        with pytest.raises(SimulationError):
            NetworkSimulator(topo, retry_backoff=0.5)
        with pytest.raises(SimulationError):
            NetworkSimulator(topo, unroutable_policy="ignore")

    def test_scheduled_failures_validated_eagerly(self):
        sim = NetworkSimulator(Torus((4, 4)))
        with pytest.raises(SimulationError):
            sim.schedule_link_failure(1.0, 0, 5)  # not a link
        with pytest.raises(SimulationError):
            sim.schedule_node_failure(1.0, 99)

    def test_scheduled_failure_time_validated_eagerly(self):
        sim = NetworkSimulator(Torus((4, 4)))
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="failure time"):
                sim.schedule_link_failure(bad, 0, 1)
            with pytest.raises(SimulationError, match="failure time"):
                sim.schedule_node_failure(bad, 0)
        assert sim.queue.pending == 0  # nothing half-scheduled


class TestLinkFailure:
    def test_dor_fixed_route_retries_then_raises(self, profiler):
        # 0 -> 3 in a 4x4 torus has exactly one minimal route (the wrap
        # link); DOR cannot sidestep a permanent failure on it.
        sim = NetworkSimulator(Torus((4, 4)), max_retries=3, retry_delay=2.0)
        sim.send(0, 3, 4096.0, at=0.0)
        sim.schedule_link_failure(0.5, 0, 3)
        with pytest.raises(SimulationError, match="retries exhausted"):
            sim.run()
        c = _counters(profiler)
        assert c["faults.injected"] == 1
        assert c["netsim.retries"] == 3

    def test_drop_policy_records_instead_of_raising(self, profiler):
        sim = NetworkSimulator(Torus((4, 4)), max_retries=2, retry_delay=2.0,
                               unroutable_policy="drop")
        msg = sim.send(0, 3, 4096.0, at=0.0)
        sim.schedule_link_failure(0.5, 0, 3)
        sim.run()
        assert msg.dropped and msg.deliver_time is None
        assert msg.attempts == 2
        c = _counters(profiler)
        assert c["netsim.dropped"] == 1
        assert c["netsim.retries"] == 2

    def test_retry_backoff_is_exponential(self):
        events = []
        sim = NetworkSimulator(Torus((4, 4)), max_retries=3, retry_delay=4.0,
                               retry_backoff=2.0, unroutable_policy="drop")
        sim.send(0, 3, 4096.0, at=0.0)
        sim.schedule_link_failure(0.5, 0, 3)
        end = sim.run()
        # attempts at ~t0, t0+4, t0+4+8, dropped on the third re-inject
        # (delay 4 * 2^2 = 16); the final event lands past t0 + 4 + 8 + 16.
        assert end >= 4.0 + 8.0 + 16.0

    def test_adaptive_reroutes_midflight_message(self, profiler):
        # 0 -> 5 has two minimal routes (via 1 and via 4); slow links keep
        # the message in flight when (0, 1) dies, forcing a live reroute.
        sim = NetworkSimulator(Torus((4, 4)), routing="adaptive",
                               bandwidth=1.0, retry_delay=50.0)
        msgs = [sim.send(0, 5, 4096.0, at=0.0) for _ in range(3)]
        sim.schedule_link_failure(500.0, 0, 1)
        sim.run()
        assert all(m.deliver_time is not None for m in msgs)
        c = _counters(profiler)
        assert c["netsim.reroutes"] >= 1
        assert c["faults.injected"] == 1

    def test_messages_after_failure_avoid_dead_link(self):
        sim = NetworkSimulator(Torus((4, 4)), routing="adaptive")
        sim.schedule_link_failure(0.0, 0, 1)
        msg = sim.send(0, 5, 64.0, at=1.0)
        sim.run()
        assert msg.deliver_time is not None

    def test_failure_counted_once_per_undirected_link(self, profiler):
        sim = NetworkSimulator(Torus((4, 4)))
        sim.fail_link(0, 1)
        sim.fail_link(1, 0)  # same link, other orientation: no double count
        assert _counters(profiler)["faults.injected"] == 1


class TestNodeFailure:
    def test_dead_destination_raises(self):
        sim = NetworkSimulator(Torus((4, 4)))
        sim.send(0, 3, 4096.0, at=0.0)
        sim.schedule_node_failure(0.0, 3)
        with pytest.raises(SimulationError, match="endpoint processor failed"):
            sim.run()

    def test_dead_destination_drop_policy(self, profiler):
        sim = NetworkSimulator(Torus((4, 4)), unroutable_policy="drop")
        msgs = [sim.send(0, 3, 4096.0, at=float(i)) for i in range(4)]
        sim.schedule_node_failure(0.0, 3)
        sim.run()
        assert all(m.dropped for m in msgs)
        assert _counters(profiler)["netsim.dropped"] == 4

    def test_traffic_not_involving_dead_node_unaffected(self):
        sim = NetworkSimulator(Torus((4, 4)), unroutable_policy="drop")
        good = sim.send(8, 10, 64.0, at=0.0)
        sim.schedule_node_failure(0.0, 3)
        sim.run()
        assert good.deliver_time is not None and not good.dropped


class TestDeterminism:
    def _run(self):
        prof = obs.enable()
        try:
            sim = NetworkSimulator(Torus((4, 4)), routing="adaptive",
                                   bandwidth=1.0, retry_delay=50.0,
                                   unroutable_policy="drop")
            msgs = [sim.send(0, 5, 4096.0, at=float(i)) for i in range(5)]
            sim.schedule_link_failure(500.0, 0, 1)
            sim.schedule_node_failure(9000.0, 5)
            end = sim.run()
            return (
                end,
                [(m.deliver_time, m.attempts, m.dropped) for m in msgs],
                prof.snapshot().get("counters", {}),
            )
        finally:
            obs.disable()

    def test_identical_runs_bit_identical(self):
        assert self._run() == self._run()


class TestDegradedEndToEnd:
    def test_simulate_over_degraded_topology_with_slow_links(self, profiler):
        """Acceptance flow: map on the degraded machine, then simulate over
        its BFS routes with the fault set's bandwidth overrides applied."""
        from repro.mapping import TopoLB
        from repro.taskgraph import random_taskgraph

        base = Torus((8, 8))
        faults = FaultSet.generate(base, seed=3, node_rate=0.05,
                                   link_rate=0.02, slow_rate=0.05)
        deg = DegradedTopology(base, faults)
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.1, seed=0)
        mapping = TopoLB().map(graph, deg)
        assign = np.asarray(mapping.assignment)

        sim = NetworkSimulator(
            deg, link_bandwidths=faults.bandwidth_overrides(100.0)
        )
        for a, b, w in graph.edges():
            sim.send(int(assign[a]), int(assign[b]), float(w))
        sim.run()
        c = _counters(profiler)
        assert c["netsim.delivered"] == c["netsim.messages"]

    def test_mappers_and_adaptive_drop_on_a_spec_built_degraded_torus(
            self, profiler):
        """A spec-built degraded 8x8 torus: TopoLB, TopoCentLB and
        RefineTopoLB each place every task on a healthy node, and adaptive
        routing with the drop policy delivers traffic across a link that
        fails mid-run."""
        from repro.mapping import RefineTopoLB, TopoCentLB, TopoLB
        from repro.taskgraph import random_taskgraph
        from repro.topology import topology_from_spec

        deg = topology_from_spec(
            "degraded:torus:8x8;seed=3;nodes=0.05;links=0.02")
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.1, seed=0)
        allowed = deg.allowed_mask()
        for mapper in (TopoLB(), TopoCentLB(), RefineTopoLB(base=TopoLB())):
            assign = np.asarray(mapper.map(graph, deg).assignment)
            assert allowed[assign].all(), type(mapper).__name__

        sim = NetworkSimulator(deg, routing="adaptive", bandwidth=1.0,
                               unroutable_policy="drop")
        for a, b, w in graph.edges():
            sim.send(int(assign[a]), int(assign[b]), float(w))
        link = next(link for link in deg.links() if allowed[[*link]].all())
        sim.schedule_link_failure(10.0, *link)
        sim.run()
        c = _counters(profiler)
        assert c["faults.injected"] == 1
        assert c["netsim.delivered"] > 0
