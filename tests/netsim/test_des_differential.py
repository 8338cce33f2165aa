"""Random small closed-loop replays: the compiled DES against its reference.

Each example draws a machine (grids, whose routes the compiled body walks
itself, and machines whose routes Python interns), one or two Jacobi
applications with random CSR graphs (isolated tasks, zero-weight edges,
up to two tasks per processor), and a simulator configuration (DOR or
adaptive routing, NIC channels, finite buffers with and without jitter,
a stall window, the profiler). Both bodies replay it; everything they
expose must agree to the bit: the statistics, the three link tables, each
application's iteration finish times, the numbers of fired and pending
events, the profiler's counters, and the error text when the run raises.
Fixed replays whose clock overflows compare the two error texts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import SimulationError
from repro.mapping import Mapping, _native
from repro.netsim import IterativeApplication, NetworkSimulator
from repro.taskgraph import TaskGraph
from repro.topology import topology_from_spec

MACHINES = ("torus:4x4", "mesh:3x3", "torus:2x3x2", "mesh:5", "hypercube:3",
            "fattree:arity=2;levels=2")


@st.composite
def replays(draw):
    topology = topology_from_spec(draw(st.sampled_from(MACHINES)))
    p = topology.num_nodes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Tied replays put two tasks on every processor and make compute steps,
    # local deliveries and transfers whole microseconds, so compute steps,
    # deliveries and injections keep landing on one instant and only the
    # event sequence numbers order them.
    tied = draw(st.booleans())
    apps = []
    for _ in range(draw(st.integers(1, 2))):
        n = 2 * p if tied else draw(st.integers(1, 2 * p))
        density = draw(st.sampled_from([0.0, 0.2, 0.5]))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        weights = rng.choice([0.0, 400.0, 3000.0], size=len(pairs))
        if tied:
            weights[:] = 2000.0
        graph = TaskGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
        compute = 1.0 if tied else draw(st.sampled_from(["scalar", "array"]))
        if compute == "scalar":
            compute = float(rng.uniform(0, 3))
        elif compute == "array":
            compute = rng.uniform(0, 3, size=n)
        apps.append({
            "graph": graph,
            "assignment": (np.arange(n) % p if tied
                           else rng.integers(0, p, size=n)),
            "iterations": draw(st.integers(1, 3)),
            "message_bytes": None if tied else draw(
                st.sampled_from([None, 700.0])),
            "compute_time": compute,
        })
    knobs = {"bandwidth": 1000.0 if tied else draw(
                 st.sampled_from([20.0, 100.0, 1000.0])),
             "alpha": 0.0 if tied else draw(st.sampled_from([0.0, 0.3])),
             "local_latency": 1.0 if tied else 0.05,
             "routing": draw(st.sampled_from(["dor", "adaptive"])),
             "seed": draw(st.integers(0, 9))}
    if draw(st.booleans()):
        knobs["nic_bandwidth"] = draw(st.sampled_from([50.0, 400.0]))
    if draw(st.sampled_from([True, True, False])):
        knobs.update(buffer_bytes=draw(st.sampled_from([800.0, 4000.0])),
                     retry_jitter=draw(st.sampled_from([0.0, 0.0, 0.4])),
                     max_retries=draw(st.sampled_from([2, 64])),
                     retry_delay=draw(st.sampled_from([0.5, 3.0])))
    if draw(st.booleans()):
        knobs["unroutable_policy"] = "drop"
    if not tied and draw(st.sampled_from([True, False, False])):
        knobs["stall_window"] = draw(st.sampled_from([5.0, 200.0]))
    return topology, apps, knobs, draw(st.booleans())


def _replay(kernel, topology, apps, knobs, profiled) -> str:
    prof = obs.enable() if profiled else None
    try:
        sim = NetworkSimulator(topology, **knobs, kernel=kernel)
        runs = [IterativeApplication(
            Mapping(app["graph"], topology, app["assignment"]), sim,
            iterations=app["iterations"], message_bytes=app["message_bytes"],
            compute_time=app["compute_time"]) for app in apps]
        error, finish = None, []
        try:
            for run in runs:
                run.start()
            sim.run()
            finish = [run.result().iteration_finish_times.tolist()
                      for run in runs]
        except SimulationError as exc:
            error = str(exc)
        state = [error, finish, sim.stats.snapshot(), sim.link_bytes(),
                 sim.link_busy_times(), sim.link_queue_peaks(),
                 sim.queue.processed, sim.queue.pending, sim.in_flight]
        if prof is not None:
            snap = prof.snapshot()
            # C's counts reach the profiler at a return, not in event order.
            state.append(sorted((k, v) for k, v in snap["counters"].items()
                                if not k.startswith("kernel.")))
    finally:
        if prof is not None:
            obs.disable()
    return repr(state)  # repr keeps every float bit


@pytest.mark.skipif(_native._compiler() is None, reason="no C compiler")
@settings(max_examples=min(50, settings().max_examples), deadline=None,
          derandomize=True)  # the sanitized run loads a smaller profile
@given(replays())
def test_random_closed_loops_match_reference(replay):
    assert _replay("vectorized", *replay) == _replay("reference", *replay)


@pytest.mark.skipif(_native._compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("overflow", [
    {"knobs": {"alpha": 1e308}},  # a transfer's head and its link free
    {"app": {"compute_time": 1e308}},  # the next iteration's compute step
    {"knobs": {"buffer_bytes": 800.0, "retry_delay": 1e308}},  # a retransmit
], ids=["alpha", "compute", "retry"])
def test_an_overflowing_clock_raises_one_error_on_both_bodies(overflow):
    """An event that would be scheduled at t=inf is refused with one
    SimulationError text, at the same event on both bodies."""
    topology = topology_from_spec("torus:4x4")
    graph = TaskGraph(16, [(u, v, 3000.0) for u in range(16)
                           for v in range(u + 1, 16)])
    app = {"graph": graph, "assignment": np.arange(16), "iterations": 2,
           "message_bytes": None, "compute_time": 1.0,
           **overflow.get("app", {})}
    replay = (topology, [app], {"bandwidth": 100.0, **overflow.get("knobs", {})},
              False)
    reference = _replay("reference", *replay)
    assert _replay("vectorized", *replay) == reference
    assert reference.startswith("['cannot schedule an event at t=inf'")
