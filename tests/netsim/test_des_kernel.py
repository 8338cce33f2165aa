"""The simulator's compiled body against its Python reference.

The compiled event core (``repro/netsim/des_kernel.c``) is the default
whenever a C compiler is present; without one, or with ``REPRO_NO_NATIVE``
set, the simulator runs the Python event loop and says so. At the
``des_contention`` benchmark's scale both bodies must replay the same
traffic to the same bits: statistics, link tables, iteration finish times
and the number of fired events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.engine import graph_from_spec
from repro.mapping import RandomMapper, TopoLB, _native
from repro.netsim import IterativeApplication, NetworkSimulator
from repro.netsim.appsim import replay_closed_loop
from repro.topology import Mesh, topology_from_spec


@pytest.mark.skipif(_native._compiler() is None, reason="no C compiler")
def test_compiled_body_is_the_default(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    sim = NetworkSimulator(Mesh((4,)))
    assert sim._engine is not None, (
        f"a C compiler is present but the simulator runs its Python body: "
        f"{_native._error}")
    assert sim.queue is sim._engine


def test_without_native_the_reference_body_runs_and_is_counted(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(_native, "_warned", False)
    with obs.profiled() as prof:
        with pytest.warns(RuntimeWarning, match="REPRO_NO_NATIVE is set"):
            sim = NetworkSimulator(Mesh((4,)))
        NetworkSimulator(Mesh((4,)))  # warned once per process
    assert sim._engine is None
    assert prof.counters["kernel.reference_fallbacks"] == 2
    sim.send(0, 3, 100.0)
    assert sim.run() > 0 and sim.stats.count == 1


@pytest.fixture(scope="module")
def bench_mappings():
    """The ``des_contention`` workload's graph and machine, placed randomly
    (congested: tail drops and jittered retransmits) and by TopoLB."""
    graph = graph_from_spec("mesh3d:8x8x8;bytes=4096")
    topology = topology_from_spec("torus:8x8x8")
    return {"random": RandomMapper(seed=5).map(graph, topology),
            "topolb": TopoLB().map(graph, topology)}


def _replayed_state(mapping, kernel: str, seed: int) -> str:
    sim, result = replay_closed_loop(
        mapping, 2, buffer_bytes=16384, retry_jitter=0.5, seed=seed,
        kernel=kernel)
    # repr keeps every float bit.
    return repr({
        "stats": sim.stats.snapshot(),
        "link_bytes": sim.link_bytes(),
        "busy": sim.link_busy_times(),
        "peaks": sim.link_queue_peaks(),
        "finish": result.iteration_finish_times.tolist(),
        "processed": sim.queue.processed,
    })


CASES = [(placement, seed) for placement in ("random", "topolb")
         for seed in (1, 2, 3)]


@pytest.mark.parametrize("placement, seed", CASES,
                         ids=[f"{p}-seed{s}" for p, s in CASES])
def test_bodies_agree_at_benchmark_scale(bench_mappings, placement, seed):
    mapping = bench_mappings[placement]
    reference = _replayed_state(mapping, "reference", seed)
    assert _replayed_state(mapping, "vectorized", seed) == reference


@pytest.mark.parametrize("knobs", [
    {"bandwidth": 20.0},  # deep FIFOs: saturation crossings
    {"bandwidth": 100.0, "buffer_bytes": 16384.0, "retry_jitter": 0.5,
     "seed": 7},  # tail drops and jittered retransmits
], ids=["saturating", "dropping"])
def test_profiled_counters_match_reference(knobs):
    """The counts C keeps equal the counters the reference body records."""
    graph = graph_from_spec("mesh3d:4x4x4;bytes=4096")
    mapping = RandomMapper(seed=5).map(graph, topology_from_spec("torus:4x4x4"))

    def profiled(kernel):
        with obs.profiled() as prof:
            sim, _ = replay_closed_loop(mapping, 2, kernel=kernel, **knobs)
        snap = prof.snapshot()
        # kernel.des_returns counts the compiled body's returns only; C's
        # counts reach the profiler at a return, not in event order.
        counters = sorted((k, v) for k, v in snap["counters"].items()
                          if not k.startswith("kernel."))
        return repr((counters, sim.stats.snapshot(), sim.queue.processed))

    assert profiled("vectorized") == profiled("reference")


@pytest.mark.skipif(_native._compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("max_retries", [64, 1], ids=["persistent", "dropping"])
def test_a_closed_loop_returns_once_plus_once_per_final_drop(max_retries):
    """Without jitter the compiled body runs a buffered closed loop whole:
    one return at the end, and one per final drop, which Python records."""
    graph = graph_from_spec("mesh3d:4x4x4;bytes=4096")
    mapping = RandomMapper(seed=5).map(graph, topology_from_spec("torus:4x4x4"))
    with obs.profiled() as prof:
        sim = NetworkSimulator(mapping.topology, bandwidth=100.0,
                               buffer_bytes=4096.0, max_retries=max_retries,
                               unroutable_policy="drop")
        IterativeApplication(mapping, sim, iterations=2).start()
        sim.run()
    assert sim.stats.retransmits > 0
    assert (sim.stats.dropped > 0) == (max_retries == 1)
    assert prof.counters["kernel.des_returns"] == 1 + sim.stats.dropped


def _queue_state(sim, extra=()) -> str:
    """Everything both bodies expose after a run, as one string (repr keeps
    every float bit)."""
    return repr([sim.now, sim.queue.processed, sim.queue.pending,
                 sim.stats.snapshot(), sim.link_bytes(), sim.link_busy_times(),
                 sim.link_queue_peaks(), *extra])


def _buffered_replay(kernel):
    """A finite-buffer replay with uneven compute times and a routing
    latency: its retransmits and transfers spread over many event times."""
    graph = graph_from_spec("mesh3d:4x4x4;bytes=4096")
    topology = topology_from_spec("torus:4x4x4")
    mapping = RandomMapper(seed=5).map(graph, topology)
    sim = NetworkSimulator(topology, bandwidth=100.0, alpha=0.13,
                           buffer_bytes=4096.0, seed=3, kernel=kernel)
    compute = np.random.default_rng(0).uniform(0, 3, size=graph.num_tasks)
    app = IterativeApplication(mapping, sim, iterations=2,
                               compute_time=compute)
    app.start()
    return sim, app


class TestQueueByInstant:
    """The compiled queue keeps one FIFO of records per event time; each
    case below is replayed on both bodies and must agree to the bit,
    including the order in which same-time deliveries and callbacks fire."""

    @staticmethod
    def _both(scenario):
        return [scenario(kernel) for kernel in ("vectorized", "reference")]

    def test_every_transfer_lands_on_one_instant(self):
        """Sixteen one-hop sends of one size, all at t=5 with no routing
        latency: every head arrival, delivery and link free of the run
        shares two instants, and Python callbacks are queued among them.
        The run stops at a deadline on the first instant, then in the
        middle of the second."""
        def scenario(kernel):
            sim = NetworkSimulator(topology_from_spec("torus:4x4"),
                                   alpha=0.0, kernel=kernel)
            fired = []
            for p in range(16):
                sim.send(p, (p + 1) % 16 if p % 4 != 3 else p - 3, 1000.0,
                         on_delivery=lambda m: fired.append(("d", m.msg_id)),
                         at=5.0)
                sim.queue.call(6.0, fired.append, ("py", p))
            stops = []
            for bound in ({"until": 5.0}, {"max_events": 21}, {}):
                sim.run(**bound)
                stops.append((sim.now, sim.queue.processed, len(fired)))
            return _queue_state(sim, [fired, stops])

        vectorized, reference = self._both(scenario)
        assert vectorized == reference
        assert "('d', 15)" in reference and "('py', 15)" in reference

    def test_an_instant_is_drained_then_refilled_at_its_time(self):
        """A 3-hop transfer without routing latency, alone at t=2, drains
        its instant at every hop and refills it with the next head arrival;
        a callback alone at t=3 schedules another at t=3, three times over.
        A record queued at t=4 from the start must still come last."""
        def scenario(kernel):
            sim = NetworkSimulator(topology_from_spec("torus:8"), alpha=0.0,
                                   kernel=kernel)
            fired = []

            def chain(k):
                fired.append((k, sim.now))
                if k < 3:
                    sim.queue.call(sim.now, chain, k + 1)

            sim.queue.call(4.0, lambda: fired.append(("late", sim.now)))
            sim.queue.call(3.0, chain, 0)
            sim.send(0, 3, 500.0, at=2.0,
                     on_delivery=lambda m: fired.append(("d", sim.now)))
            sim.run()
            return _queue_state(sim, [fired])

        vectorized, reference = self._both(scenario)
        assert vectorized == reference
        assert ("[('d', 2.5), (0, 3.0), (1, 3.0), (2, 3.0), (3, 3.0), "
                "('late', 4.0)]") in reference

    def test_instants_are_exact_times(self):
        """-0.0 and +0.0 are one instant, fired in push order, and each
        record sets the clock to its own zero; two adjacent doubles are two
        instants, fired in time order."""
        def scenario(kernel):
            sim = NetworkSimulator(topology_from_spec("torus:4"),
                                   kernel=kernel)
            fired = []
            for k, t in enumerate((0.0, -0.0, 0.1 + 0.2, 0.0, 0.3, -0.0)):
                sim.queue.call(t, lambda k=k: fired.append((k, sim.now)))
            sim.run()
            return _queue_state(sim, [fired])

        vectorized, reference = self._both(scenario)
        assert vectorized == reference
        assert ("(1, -0.0), (3, 0.0), (5, -0.0), (4, 0.3), "
                "(2, 0.30000000000000004)") in reference

    def test_a_finite_buffer_replay_keeps_many_instants_live(self):
        """Over 100 event times are pending at once (counted on the
        reference queue), run in slices of 50 events."""
        states = {}
        peak = 0
        for kernel in ("vectorized", "reference"):
            sim, app = _buffered_replay(kernel)
            slices, before = [], -1
            while sim.queue.processed != before:  # until a slice fires none
                before = sim.queue.processed
                sim.run(max_events=50)
                slices.append((sim.now, sim.queue.processed,
                               sim.queue.pending))
                if kernel == "reference":
                    peak = max(peak, len({e[0] for e in sim.queue._heap}))
            states[kernel] = _queue_state(
                sim, [slices, app.result().iteration_finish_times.tolist()])
        assert states["vectorized"] == states["reference"]
        assert peak >= 100

    @pytest.mark.parametrize("stop", ["max_events", "until"])
    def test_a_bounded_run_stops_where_the_reference_does(self, stop):
        """Runs bounded by an event count, or by deadlines between event
        times, leave the same clock and the same records queued."""
        def scenario(kernel):
            sim, app = _buffered_replay(kernel)
            stops = []
            for k in range(1, 60):
                if stop == "max_events":
                    sim.run(max_events=k * 7 % 113)
                else:
                    sim.run(until=k * 0.61)
                stops.append((sim.now, sim.queue.processed,
                              sim.queue.pending))
            sim.run()
            return _queue_state(
                sim, [stops, app.result().iteration_finish_times.tolist()])

        vectorized, reference = self._both(scenario)
        assert vectorized == reference
