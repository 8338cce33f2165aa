"""Non-finite numbers and out-of-range endpoints are rejected at every DES
entry point.

A NaN that reached an event time used to fire out of time order, and a NaN
bandwidth or latency silently produced a NaN makespan. A send to or from a
node that is not a processor used to be delivered as a local message, or to
fail from inside the event loop when its injection fired.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.exceptions import SimulationError, SpecError
from repro.netsim import EventQueue, NetworkSimulator
from repro.topology import Torus, topology_from_spec

NAN, INF = math.nan, math.inf

#: Every real-valued simulator knob, with a non-finite value that used to
#: slip through (NaN compares false against every bound).
BAD_KNOBS = [
    {"bandwidth": NAN},
    {"bandwidth": INF},
    {"alpha": NAN},
    {"alpha": INF},
    {"local_latency": NAN},
    {"nic_bandwidth": NAN},
    {"nic_bandwidth": INF},
    {"link_bandwidths": {(0, 1): NAN}},
    {"link_bandwidths": {(0, 1): INF}},
    {"retry_delay": NAN},
    {"retry_delay": INF},
    {"retry_backoff": NAN},
    {"retry_backoff": INF},
    {"retry_jitter": NAN},
    {"retry_jitter": INF},
    {"stall_window": NAN},
    {"stall_window": INF},
    {"buffer_bytes": NAN},
]


@pytest.mark.parametrize("knobs", BAD_KNOBS, ids=lambda k: repr(k))
def test_simulator_rejects_non_finite_knob(knobs):
    (key,) = knobs
    name = "link (0, 1) bandwidth" if key == "link_bandwidths" else key
    with pytest.raises(SimulationError, match=f"{re.escape(name)} must be finite"):
        NetworkSimulator(Torus((4, 4)), **knobs)


@pytest.mark.parametrize("size", [NAN, INF])
def test_send_rejects_non_finite_size(size):
    sim = NetworkSimulator(Torus((4, 4)))
    with pytest.raises(SimulationError, match="message size"):
        sim.send(0, 5, size)
    assert sim.in_flight == 0 and sim.queue.pending == 0


@pytest.mark.parametrize("at", [NAN, INF, -INF])
def test_send_rejects_non_finite_time(at):
    sim = NetworkSimulator(Torus((4, 4)))
    with pytest.raises(SimulationError, match="send time"):
        sim.send(0, 5, 100.0, at=at)
    assert sim.in_flight == 0 and sim.queue.pending == 0


@pytest.mark.parametrize("topology, src, dst, at", [
    ("torus:4x4", 99, 99, None),     # delivered as a local message
    ("torus:4x4", 0, 99, 5.0),       # failed at t=5 inside the event loop
    ("fattree:4x2", 23, 0, None),    # a switch cannot inject
    ("fattree:4x2", 23, 23, None),   # nor absorb
    ("torus:4x4", -1, 3, None),
])
def test_send_rejects_non_processor_endpoint(topology, src, dst, at):
    sim = NetworkSimulator(topology_from_spec(topology))
    with pytest.raises(SimulationError, match="endpoints must be processors"):
        sim.send(src, dst, 100.0, at=at)
    assert sim.in_flight == 0 and sim.queue.pending == 0


def test_schedule_rejects_nan_time():
    q = EventQueue()
    with pytest.raises(SimulationError, match="nan"):
        q.schedule(NAN, lambda: None)
    with pytest.raises(SimulationError, match="nan"):
        q.call(NAN, print)
    assert q.pending == 0


@pytest.mark.parametrize("knobs", [
    {"bandwidth": NAN},
    {"alpha": NAN},
    {"buffer_bytes": INF},
    {"retry_jitter": NAN},
    {"stall_window": INF},
], ids=lambda k: repr(k))
def test_engine_rejects_non_finite_netsim_value(knobs):
    from repro.engine import MappingEngine, MappingRequest

    (key,) = knobs
    with pytest.raises(SpecError, match=f"netsim key '{key}' must be finite"):
        MappingEngine().run(MappingRequest(
            graph="mesh2d:4x4", topology="torus:4x4", netsim=knobs,
        ))


@pytest.mark.parametrize("kwargs", [
    {"iterations": 2.5},       # reported 2 but scaled the bytes by 2.5
    {"iterations": True},      # a bool is an int: ran one iteration
    {"iterations": INF},       # OverflowError
    {"bandwidth": NAN},        # bottleneck_time_us = 0.0
    {"bandwidth": INF},
    {"alpha": NAN},
    {"message_bytes": NAN},    # max_link_bytes = 0.0
    {"message_bytes": INF},
    {"compute_time": NAN},     # silently ignored
    {"local_latency": NAN},    # silently ignored
], ids=lambda k: repr(k))
def test_flow_evaluate_rejects_bad_input_before_any_work(kwargs, monkeypatch):
    from repro.engine import graph_from_spec
    from repro.mapping import RandomMapper
    from repro.netsim import flow

    topology = topology_from_spec("torus:4x4")
    mapping = RandomMapper(seed=0).map(graph_from_spec("mesh2d:4x4"), topology)

    def no_work(*args):
        raise AssertionError("flow_evaluate started work on a bad input")

    monkeypatch.setattr(flow, "_directed_messages", no_work)
    (name,) = kwargs
    with pytest.raises(SimulationError, match=name):
        flow.flow_evaluate(mapping, **kwargs)


@pytest.mark.parametrize("iterations", [True, 2.5, 0],
                         ids=lambda v: repr(v))
def test_iterative_application_rejects_bad_iterations_before_any_work(
        iterations, monkeypatch):
    from repro.engine import graph_from_spec
    from repro.mapping import RandomMapper
    from repro.netsim.appsim import IterativeApplication, replay_closed_loop
    from repro.taskgraph.graph import TaskGraph

    topology = topology_from_spec("torus:4x4")
    mapping = RandomMapper(seed=0).map(graph_from_spec("mesh2d:4x4"), topology)

    def no_work(*args):
        raise AssertionError("the replay started work on a bad input")

    monkeypatch.setattr(TaskGraph, "csr_arrays", no_work)
    with pytest.raises(SimulationError, match="iterations"):
        IterativeApplication(mapping, NetworkSimulator(topology),
                             iterations=iterations)
    with pytest.raises(SimulationError, match="iterations"):
        replay_closed_loop(mapping, iterations)


@pytest.mark.parametrize("time", [INF, NAN, -INF])
def test_schedule_rejects_non_finite_time(time, kernel):
    """An event at a non-finite time is refused on both bodies' queues."""
    sim = NetworkSimulator(Torus((4, 4)), kernel=kernel)
    with pytest.raises(SimulationError, match=f"cannot schedule an event at t={time}"):
        sim.queue.call(time, print)
    assert sim.queue.pending == 0


def test_an_overflowing_clock_is_an_error_not_a_result(kernel):
    """``alpha`` 1e308 is finite, but a second hop lands at t=inf: the
    replay raises instead of reporting an infinite makespan and NaN
    percentiles."""
    from repro.engine import graph_from_spec
    from repro.mapping import RandomMapper
    from repro.netsim.appsim import replay_closed_loop

    topology = topology_from_spec("torus:4x4")
    mapping = RandomMapper(seed=0).map(graph_from_spec("mesh2d:4x4"), topology)
    with pytest.raises(SimulationError, match=r"cannot schedule an event at t=inf"):
        replay_closed_loop(mapping, 2, alpha=1e308, kernel=kernel)


def test_an_application_started_at_a_late_clock_is_refused(kernel):
    """The first compute steps of an application started at t=1e308 would
    end at t=inf; both bodies refuse them when it starts."""
    from repro.mapping import Mapping
    from repro.netsim.appsim import IterativeApplication
    from repro.taskgraph import TaskGraph

    topology = Torus((4,))
    sim = NetworkSimulator(topology, kernel=kernel)
    sim.queue.call(1e308, lambda: None)
    sim.run()
    app = IterativeApplication(
        Mapping(TaskGraph(2, [(0, 1, 8.0)]), topology, np.array([0, 1])), sim,
        iterations=1, compute_time=1e308)
    with pytest.raises(SimulationError, match=r"cannot schedule an event at t=inf"):
        app.start()
    assert sim.queue.pending == 0
