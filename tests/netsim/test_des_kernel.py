"""The simulator's compiled body against its Python reference.

The compiled event core (``repro/netsim/des_kernel.c``) is the default
whenever a C compiler is present; without one, or with ``REPRO_NO_NATIVE``
set, the simulator runs the Python event loop and says so. At the
``des_contention`` benchmark's scale both bodies must replay the same
traffic to the same bits: statistics, link tables, iteration finish times
and the number of fired events.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.engine import graph_from_spec
from repro.mapping import RandomMapper, TopoLB, _native
from repro.netsim import NetworkSimulator
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
    {"bandwidth": 20.0},  # deep FIFOs: saturation events
    {"bandwidth": 100.0, "buffer_bytes": 16384.0, "retry_jitter": 0.5,
     "seed": 7},  # tail drops and jittered retransmits
], ids=["saturating", "dropping"])
def test_profile_survives_a_full_telemetry_log(monkeypatch, knobs):
    """A log far shorter than a burst of hops makes the compiled body stop,
    hand its rows over and resume: the profile still equals the reference
    body's, counters, events and series alike."""
    monkeypatch.setattr(_native.DesEngine, "_LOG_ROWS", 3)
    graph = graph_from_spec("mesh3d:4x4x4;bytes=4096")
    mapping = RandomMapper(seed=5).map(graph, topology_from_spec("torus:4x4x4"))

    def profiled(kernel):
        with obs.profiled() as prof:
            sim, _ = replay_closed_loop(mapping, 2, kernel=kernel, **knobs)
        snap = prof.snapshot()
        return repr((snap["counters"], snap.get("events"), snap.get("series"),
                     sim.stats.snapshot(), sim.queue.processed))

    assert profiled("vectorized") == profiled("reference")
