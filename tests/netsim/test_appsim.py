"""Tests for the iterative application replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.mapping import IdentityMapper, Mapping, RandomMapper, TopoLB
from repro.netsim import IterativeApplication, NetworkSimulator
from repro.taskgraph import TaskGraph, mesh2d_pattern
from repro.topology import Torus


def run_app(mapping, iterations=5, bandwidth=100.0, message_bytes=100.0,
            compute_time=1.0, **sim_kw):
    sim = NetworkSimulator(mapping.topology, bandwidth=bandwidth, alpha=0.1, **sim_kw)
    app = IterativeApplication(
        mapping, sim, iterations=iterations,
        message_bytes=message_bytes, compute_time=compute_time,
    )
    return app.run()


class TestBasicExecution:
    def test_all_iterations_complete(self, pattern8x8, torus8x8):
        mapping = IdentityMapper().map(pattern8x8, torus8x8)
        result = run_app(mapping, iterations=4)
        assert result.iterations == 4
        assert len(result.iteration_finish_times) == 4
        assert result.total_time > 0

    def test_iteration_times_monotone(self, pattern8x8, torus8x8):
        mapping = IdentityMapper().map(pattern8x8, torus8x8)
        result = run_app(mapping, iterations=6)
        finish = result.iteration_finish_times
        assert (np.diff(finish) > 0).all()

    def test_message_count(self, pattern8x8, torus8x8):
        """Each task sends one message per neighbor per iteration."""
        mapping = IdentityMapper().map(pattern8x8, torus8x8)
        result = run_app(mapping, iterations=3)
        expected = 3 * int(pattern8x8.degrees().sum())
        assert result.messages_delivered == expected

    def test_single_task_no_messages(self):
        g = TaskGraph(1)
        topo = Torus((1,))
        mapping = IdentityMapper().map(g, topo)
        result = run_app(mapping, iterations=3, compute_time=2.0)
        assert result.messages_delivered == 0
        assert result.total_time == pytest.approx(3 * 2.0)

    def test_compute_only_lower_bound(self, pattern8x8, torus8x8):
        mapping = IdentityMapper().map(pattern8x8, torus8x8)
        result = run_app(mapping, iterations=5, compute_time=10.0)
        assert result.total_time >= 5 * 10.0

    def test_run_once_only(self, pattern8x8, torus8x8):
        mapping = IdentityMapper().map(pattern8x8, torus8x8)
        sim = NetworkSimulator(torus8x8, bandwidth=100.0)
        app = IterativeApplication(mapping, sim, iterations=2, message_bytes=10.0)
        app.run()
        with pytest.raises(SimulationError):
            app.run()

    def test_bad_params(self, pattern8x8, torus8x8):
        mapping = IdentityMapper().map(pattern8x8, torus8x8)
        sim = NetworkSimulator(torus8x8)
        with pytest.raises(SimulationError):
            IterativeApplication(mapping, sim, iterations=0)
        with pytest.raises(SimulationError):
            IterativeApplication(mapping, sim, iterations=1, message_bytes=-5.0)
        with pytest.raises(SimulationError):
            IterativeApplication(mapping, sim, iterations=1, compute_time=-1.0)


class TestDependencyStructure:
    def test_jacobi_iteration_gating(self):
        """A task cannot race ahead: iteration k+1 needs all of k's messages.

        Two tasks on adjacent processors with very different compute times:
        the fast one must still wait for the slow one's message each round,
        so total time tracks the slow task.
        """
        g = TaskGraph(2, [(0, 1, 20.0)])
        topo = Torus((2,))
        mapping = IdentityMapper().map(g, topo)
        sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.1)
        app = IterativeApplication(
            mapping, sim, iterations=5, message_bytes=10.0,
            compute_time=np.array([1.0, 30.0]),
        )
        result = app.run()
        assert result.total_time >= 5 * 30.0

    def test_per_edge_message_sizes_from_graph(self):
        """message_bytes=None derives per-direction sizes from edge weights."""
        g = TaskGraph(2, [(0, 1, 2000.0)])  # 1000 bytes per direction
        topo = Torus((2,))
        mapping = IdentityMapper().map(g, topo)
        sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.0)
        app = IterativeApplication(mapping, sim, iterations=1, compute_time=0.0)
        result = app.run()
        # 1000-byte message at 100 B/us -> 10us serialization
        assert result.mean_message_latency == pytest.approx(10.0)

    def test_colocated_tasks_use_local_latency(self):
        g = TaskGraph(2, [(0, 1, 100.0)])
        topo = Torus((2,))
        mapping = Mapping(g, topo, [0, 0])
        result = run_app(mapping, iterations=2)
        assert result.hops_per_byte == 0.0
        assert result.mean_message_latency < 0.2


class TestCoScheduling:
    def test_two_jobs_share_one_network(self):
        """start()/result() let several applications co-run on one machine."""
        machine = Torus((4, 4))
        sim = NetworkSimulator(machine, bandwidth=100.0, alpha=0.1)
        apps = []
        for base in (0, 8):
            g = mesh2d_pattern(2, 4)
            assign = np.arange(8) + base
            app = IterativeApplication(Mapping(g, machine, assign), sim,
                                       iterations=3, message_bytes=500.0,
                                       compute_time=1.0)
            app.start()
            apps.append(app)
        sim.run()
        results = [app.result() for app in apps]
        assert all(r.iterations == 3 for r in results)
        total_msgs = sum(r.messages_delivered for r in results)
        # the sim's stats are shared; each app reports the combined count
        assert total_msgs == 2 * sim.stats.count

    def test_interference_slows_jobs_down(self):
        """A co-runner crossing the same links must cost the victim time."""
        machine = Torus((8,))
        g = mesh2d_pattern(2, 2)

        def run(with_interference: bool) -> float:
            sim = NetworkSimulator(machine, bandwidth=50.0, alpha=0.1)
            victim = IterativeApplication(
                Mapping(g, machine, [0, 1, 2, 3]), sim, iterations=5,
                message_bytes=800.0, compute_time=1.0,
            )
            victim.start()
            apps = [victim]
            if with_interference:
                # A second job whose ring traffic crosses the victim's links.
                other = IterativeApplication(
                    Mapping(g, machine, [4, 0, 2, 6]), sim, iterations=5,
                    message_bytes=800.0, compute_time=1.0,
                )
                other.start()
                apps.append(other)
            sim.run()
            return victim.result().total_time

        assert run(True) > run(False)

    def test_result_before_run_raises(self, pattern8x8, torus8x8):
        sim = NetworkSimulator(torus8x8)
        app = IterativeApplication(IdentityMapper().map(pattern8x8, torus8x8),
                                   sim, iterations=1, message_bytes=10.0)
        with pytest.raises(SimulationError):
            app.result()
        app.start()
        with pytest.raises(SimulationError):  # queue not drained yet
            app.result()


class TestMappingEffects:
    def test_topolb_beats_random_total_time(self):
        """The paper's bottom line, end to end through the simulator."""
        topo = Torus((4, 4, 4))
        g = mesh2d_pattern(8, 8)
        random_time = run_app(
            RandomMapper(seed=0).map(g, topo), iterations=10,
            bandwidth=100.0, message_bytes=2000.0,
        ).total_time
        topolb_time = run_app(
            TopoLB().map(g, topo), iterations=10,
            bandwidth=100.0, message_bytes=2000.0,
        ).total_time
        assert topolb_time < random_time

    def test_observed_hops_per_byte_matches_metric(self):
        topo = Torus((4, 4))
        g = mesh2d_pattern(4, 4)
        mapping = RandomMapper(seed=3).map(g, topo)
        result = run_app(mapping, iterations=2)
        # Uniform message sizes: DES-observed hops/byte == static metric.
        assert result.hops_per_byte == pytest.approx(mapping.hops_per_byte)

    def test_lower_bandwidth_never_faster(self, pattern8x8, torus8x8):
        mapping = RandomMapper(seed=1).map(pattern8x8, torus8x8)
        fast = run_app(mapping, iterations=5, bandwidth=200.0, message_bytes=1000.0)
        slow = run_app(mapping, iterations=5, bandwidth=50.0, message_bytes=1000.0)
        assert slow.total_time >= fast.total_time


class TestZeroByteEdges:
    """A zero-weight edge carries no traffic: the replay sends nothing on it
    and no task waits for it, so it changes no bit of the run."""

    @staticmethod
    def _replay(graph, assignment, kernel):
        mapping = Mapping(graph, Torus((4, 4)), assignment)
        sim = NetworkSimulator(mapping.topology, bandwidth=50.0,
                               buffer_bytes=4096.0, max_retries=64,
                               retry_jitter=0.5, seed=3,
                               unroutable_policy="drop", kernel=kernel)
        result = IterativeApplication(mapping, sim, iterations=3).run()
        # repr keeps every float bit.
        return repr({
            "stats": sim.stats.snapshot(),
            "link_bytes": sim.link_bytes(),
            "busy": sim.link_busy_times(),
            "peaks": sim.link_queue_peaks(),
            "finish": result.iteration_finish_times.tolist(),
            "processed": sim.queue.processed,
        })

    def test_zero_edges_change_nothing(self, kernel):
        base = mesh2d_pattern(4, 4, message_bytes=2048.0)
        with_zeros = TaskGraph(
            16, [*base.edges(), (0, 15, 0.0), (5, 10, 0.0), (3, 12, 0.0)])
        assignment = RandomMapper(seed=2).map(base, Torus((4, 4))).assignment
        assert (self._replay(with_zeros, assignment, kernel)
                == self._replay(base, assignment, kernel))


@pytest.mark.parametrize("bad, match", [
    ({"compute_time": float("nan")}, "compute_time must be finite"),
    ({"compute_time": float("inf")}, "compute_time must be finite"),
    ({"compute_time": [1.0] * 15 + [float("nan")]}, "compute_time must be finite"),
    ({"message_bytes": float("nan")}, "message_bytes must be finite"),
    ({"message_bytes": float("inf")}, "message_bytes must be finite"),
    ({"iterations": 2.7}, "iterations must be an integer"),
], ids=["nan-compute", "inf-compute", "nan-in-compute-array", "nan-bytes",
        "inf-bytes", "fractional-iterations"])
def test_bad_inputs_raise_at_construction(kernel, bad, match):
    """The compiled loop checks nothing per message, so every input is
    checked before any event is queued, on both bodies."""
    mapping = IdentityMapper().map(mesh2d_pattern(4, 4), Torus((4, 4)))
    sim = NetworkSimulator(mapping.topology, kernel=kernel)
    kwargs = {"iterations": 2, "message_bytes": 100.0, **bad}
    with pytest.raises(SimulationError, match=match):
        IterativeApplication(mapping, sim, **kwargs)
    assert sim.queue.pending == 0 and sim.queue.processed == 0
