"""Bit-identity oracle for the network simulator.

Each configuration replays a fixed workload and hashes everything the
simulator exposes: ``stats.snapshot()``, the per-link byte, busy-time and
queue-peak tables, the application's iteration finish times, the number of
fired events and, for the profiled cases, the counters, events and series
the profiler recorded. The pinned digests were computed before the event
loop and route arithmetic were rewritten for speed; any change to event
order, float arithmetic or telemetry changes a digest.

Regenerate (only when a change of results is intended) with::

    PYTHONPATH=src python tests/netsim/test_des_digest.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.engine import graph_from_spec
from repro.exceptions import SimulationError
from repro.mapping import Mapping, RandomMapper, TopoLB
from repro.netsim import IterativeApplication, NetworkSimulator
from repro.topology import topology_from_spec

#: name -> (topology, graph, placement, simulator kwargs, faults, traffic).
#: ``placement`` is ``"random"``, ``"topolb"`` or ``"two_per_node"``.
#: ``faults`` holds ``("link", at, a, b)`` / ``("node", at, node)`` entries;
#: ``traffic`` is ``"app"`` (two closed-loop Jacobi iterations) or ``"load"``
#: (a seeded batch of pre-scheduled sends, for runs that drop messages a
#: closed loop would wait on forever). A run that raises
#: :class:`SimulationError` digests the message and the state it stopped in.
CASES = {
    "t444_random_dor": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random", {}, (), "app"),
    "t444_topolb_dor": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "topolb", {}, (), "app"),
    "t444_random_adaptive": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"routing": "adaptive", "bandwidth": 200.0}, (), "app"),
    "t444_random_saf_nic": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"model": "store_and_forward", "nic_bandwidth": 300.0}, (), "app"),
    "t444_oversubscribed_local": (
        "torus:4x4x4", "mesh3d:8x4x4;bytes=2048", "two_per_node",
        {"local_latency": 0.2, "alpha": 0.3}, (), "app"),
    "t444_random_drop_jitter": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "overload_policy": "drop", "max_retries": 64,
         "retry_jitter": 0.5, "seed": 7, "unroutable_policy": "drop",
         "bandwidth": 100.0}, (), "app"),
    "t444_random_ecn_jitter": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "overload_policy": "ecn", "max_retries": 64,
         "retry_jitter": 0.25, "seed": 3, "unroutable_policy": "drop",
         "bandwidth": 100.0}, (), "app"),
    "t444_topolb_ecn_adaptive_nic": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "topolb",
        {"buffer_bytes": 4096.0, "overload_policy": "ecn", "max_retries": 64,
         "routing": "adaptive", "nic_bandwidth": 500.0, "bandwidth": 100.0,
         "unroutable_policy": "drop"}, (), "app"),
    "t444_random_stall_window": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "overload_policy": "drop", "max_retries": 64,
         "retry_jitter": 0.5, "seed": 1, "unroutable_policy": "drop",
         "bandwidth": 100.0, "stall_window": 300.0}, (), "app"),
    "t444_livelock_raises": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "overload_policy": "drop", "max_retries": 64,
         "retry_jitter": 0.5, "seed": 1, "unroutable_policy": "drop",
         "bandwidth": 100.0, "stall_window": 20.0}, (), "app"),
    "t444_dor_link_fault_raises": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"max_retries": 8, "retry_delay": 3.0},
        (("link", 2.0, 0, 1), ("link", 4.0, 5, 21)), "app"),
    "t444_dor_link_fault": (
        "torus:4x4x4", None, "random",
        {"max_retries": 2, "retry_delay": 3.0, "unroutable_policy": "drop"},
        (("link", 2.0, 0, 1), ("link", 4.0, 5, 21)), "load"),
    "t444_link_fault_buffered_jitter": (
        "torus:4x4x4", None, "random",
        {"max_retries": 6, "retry_delay": 1.0, "unroutable_policy": "drop",
         "buffer_bytes": 6000.0, "retry_jitter": 0.5, "seed": 4,
         "bandwidth": 150.0},
        (("link", 1.0, 0, 1), ("link", 2.0, 5, 21), ("node", 4.0, 42)), "load"),
    "t444_adaptive_link_fault": (
        "torus:4x4x4", None, "topolb",
        {"routing": "adaptive", "max_retries": 8, "unroutable_policy": "drop",
         "retry_delay": 1.0},
        (("link", 1.5, 0, 16), ("link", 3.0, 42, 43), ("link", 0.5, 1, 5)),
        "load"),
    "t444_node_fault_drop": (
        "torus:4x4x4", None, "random",
        {"unroutable_policy": "drop", "max_retries": 4, "retry_delay": 2.0,
         "routing": "adaptive"},
        (("node", 3.0, 21), ("link", 5.0, 0, 4)), "load"),
    "t88_random_dor": (
        "torus:8x8", "mesh2d:8x8;bytes=4096", "random", {}, (), "app"),
    "t88_topolb_adaptive": (
        "torus:8x8", "mesh2d:8x8;bytes=4096", "topolb",
        {"routing": "adaptive"}, (), "app"),
    "t88_random_drop_jitter": (
        "torus:8x8", "mesh2d:8x8;bytes=4096", "random",
        {"buffer_bytes": 8192.0, "overload_policy": "drop", "max_retries": 64,
         "retry_jitter": 0.3, "seed": 11, "unroutable_policy": "drop",
         "bandwidth": 80.0}, (), "app"),
    "t88_random_ecn_saf": (
        "torus:8x8", "mesh2d:8x8;bytes=4096", "random",
        {"buffer_bytes": 8192.0, "overload_policy": "ecn", "max_retries": 64,
         "retry_jitter": 0.1, "seed": 5, "unroutable_policy": "drop",
         "model": "store_and_forward", "bandwidth": 80.0}, (), "app"),
    "t88_link_bandwidths": (
        "torus:8x8", "mesh2d:8x8;bytes=4096", "random",
        {"link_bandwidths": {(0, 1): 50.0, (9, 17): 20.0, (63, 7): 400.0}},
        (), "app"),
    "t88_node_fault_dor": (
        "torus:8x8", None, "random",
        {"unroutable_policy": "drop", "max_retries": 3, "retry_delay": 1.0},
        (("node", 2.0, 9), ("link", 1.0, 0, 8)), "load"),
    "mesh444_random_dor": (
        "mesh:4x4x4", "mesh3d:4x4x4;bytes=4096", "random", {}, (), "app"),
}

#: Cases replayed with the profiler on, so counters, events and series
#: (per-link byte timelines) are part of the digest.
PROFILED = {
    "t444_random_dor", "t444_random_saf_nic", "t444_random_drop_jitter",
    "t444_random_ecn_jitter", "t444_random_stall_window",
    "t444_livelock_raises",
    "t444_dor_link_fault", "t444_adaptive_link_fault", "t444_node_fault_drop",
    "t444_link_fault_buffered_jitter",
}


def _replay(name: str) -> dict:
    topo_spec, graph_spec, placement, kwargs, faults, traffic = CASES[name]
    topology = topology_from_spec(topo_spec)
    mapping = None
    if traffic == "app":
        graph = graph_from_spec(graph_spec)
        if placement == "random":
            mapping = RandomMapper(seed=5).map(graph, topology)
        elif placement == "topolb":
            mapping = TopoLB().map(graph, topology)
        else:  # two tasks per processor: half the messages stay local
            order = np.random.default_rng(5).permutation(graph.num_tasks)
            mapping = Mapping(graph, topology, order % topology.num_nodes)
    prof = obs.enable() if name in PROFILED else None
    try:
        sim = NetworkSimulator(topology, **kwargs)
        for fault in faults:
            if fault[0] == "link":
                sim.schedule_link_failure(*fault[1:])
            else:
                sim.schedule_node_failure(*fault[1:])
        finish: list[float] = []
        error = None
        try:
            if mapping is not None:
                result = IterativeApplication(mapping, sim, iterations=2).run()
                finish = [float(t) for t in result.iteration_finish_times]
            else:
                rng = np.random.default_rng(2)
                nodes = topology.num_nodes
                for i in range(300):
                    a, b = (int(x) for x in rng.integers(0, nodes, size=2))
                    sim.send(a, b, float(rng.integers(64, 6000)), at=i * 0.05)
                sim.run()
        except SimulationError as exc:
            error = str(exc)
        state = {
            "error": error,
            "stats": sim.stats.snapshot(),
            "link_bytes": sorted(map(list, sim.link_bytes().items()), key=str),
            "busy": sorted(map(list, sim.link_busy_times().items()), key=str),
            "peaks": sorted(map(list, sim.link_queue_peaks().items()), key=str),
            "finish": finish,
            "processed": sim.queue.processed,
        }
        if prof is not None:
            snap = prof.snapshot()
            counters = {k: v for k, v in snap["counters"].items()
                        if k.startswith(("netsim.", "faults."))}
            state["profile"] = [counters, snap.get("events"),
                                snap.get("series")]
    finally:
        if prof is not None:
            obs.disable()
    return state


def _digest(state: dict) -> str:
    # repr keeps every float bit; tuples and lists serialize alike.
    blob = json.dumps(state, sort_keys=True, default=repr,
                      allow_nan=True).encode()
    return hashlib.sha256(blob).hexdigest()


DIGESTS = {
    'mesh444_random_dor': '9c03ca7aa5b176cfe31cd03098fadde9f0ed1edc996522b21bdd84cc521f95b4',
    't444_adaptive_link_fault': 'c51e45f9eb85d2b95f2ab00037f90a8d668119e0502ec6f5efe21da6954a612d',
    't444_dor_link_fault': '7b8684272e681f56428c724a3f3a364637a36bc0d22d4dfa7063929f0a5ace0d',
    't444_dor_link_fault_raises': 'aa29afaea6d8c1786cec4e4e9c28f6d93649141e9d82b17a19f62ebe5d50da5a',
    't444_link_fault_buffered_jitter': 'f20896d2cf674603430a8be5be3dba505486f2c77bd39cb14376d812b739aa1f',
    't444_livelock_raises': '5887e7b586594dc654b3ad368908606b77190a58580450902a9e4ac8103043da',
    't444_node_fault_drop': '48987e54f18587b3c56228cdf1b7be5fd5c0ceb756499e0bcfbcd26691799951',
    't444_oversubscribed_local': '8244385c9d0fe2c535741442cff62e1506decb8bcbe2eefff54543b106286a78',
    't444_random_adaptive': 'f1cd03e2d9b5c65679384a02e62afb86bd235a92d3188d3e5bccba3e52202b5a',
    't444_random_dor': '3304a121daac501812c92e3511810b74f9b9c90956a5d8cee1df4a40b0cace89',
    't444_random_drop_jitter': 'e6f34b70da68dcbf1a3e1b1e8f6e26950cfce49b4f54b92b3fa47be8b7e59dbb',
    't444_random_ecn_jitter': '16008ad5456e1602f42dc100db4dc96a7e4cc543ee2f1c9bf592e10df72f189b',
    't444_random_saf_nic': '77ab14c9348d1dcd8d87746f854093209518a3af0cecd635f4fe9c80442170eb',
    't444_random_stall_window': 'e3b8b7f8e3eb3f1082eb11283831a9f7d8b61083f8a81eb225e8c33bff2b40a7',
    't444_topolb_dor': 'a4af292c616b2441c22b9542fdb3445d082ebc305ced69fd0e48353f9dbe6b4d',
    't444_topolb_ecn_adaptive_nic': '5b2b56b7efb7598308be3ad86d7b183fd76cfab14cb70b833e7f4c28d43ae4c2',
    't88_link_bandwidths': '2cf5de2f35c5e4a3824f4677b297c07f630936d658ecba58440adcfa3999c829',
    't88_node_fault_dor': 'f7fdef7c2b4d1c879d403fa09f33bc1d0b5aa2a1821b3653f355f22252871aa4',
    't88_random_dor': '365e37485f2a56a1be24da80d35b2bb5bbf3a45c318ca59891279691d6a5e6a1',
    't88_random_drop_jitter': 'df0fbaf93a14e864a04c0dca7d84947228dc7b1af81186cc6bbf3b60b323a7fe',
    't88_random_ecn_saf': 'db2e6f6b04bb09900dd7fd2ae6cc5558c591c9799870091ec3f8a12c76e40202',
    't88_topolb_adaptive': '4c97c265a0fcb84ac3d42aed9319d62489b4f902302925eaf9ba4d74b699a933',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_des_replay_is_bit_identical(name):
    assert _digest(_replay(name)) == DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case in sorted(CASES):
        print(f"    {case!r}: {_digest(_replay(case))!r},")
