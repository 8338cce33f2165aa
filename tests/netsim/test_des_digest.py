"""Bit-identity oracle for the network simulator.

Each configuration replays a fixed workload and hashes everything the
simulator exposes: ``stats.snapshot()``, the per-link byte, busy-time and
queue-peak tables, the application's iteration finish times, the number of
fired events and, for the profiled cases, the counters, events and series
the profiler recorded. The pinned digests were computed by the simulator
that still carried ECN pacing and store-and-forward links, so they prove
that deleting those features changed no surviving configuration; any
change to event order, float arithmetic or telemetry changes a digest.

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
    "t444_random_nic": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"nic_bandwidth": 300.0}, (), "app"),
    "t444_oversubscribed_local": (
        "torus:4x4x4", "mesh3d:8x4x4;bytes=2048", "two_per_node",
        {"local_latency": 0.2, "alpha": 0.3}, (), "app"),
    "t444_random_drop_jitter": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "max_retries": 64,
         "retry_jitter": 0.5, "seed": 7, "unroutable_policy": "drop",
         "bandwidth": 100.0}, (), "app"),
    "t444_random_drop_adaptive_nic": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "max_retries": 64,
         "retry_jitter": 0.25, "seed": 3, "unroutable_policy": "drop",
         "bandwidth": 100.0, "routing": "adaptive", "nic_bandwidth": 500.0},
        (), "app"),
    "t444_random_stall_window": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "max_retries": 64,
         "retry_jitter": 0.5, "seed": 1, "unroutable_policy": "drop",
         "bandwidth": 100.0, "stall_window": 300.0}, (), "app"),
    "t444_livelock_raises": (
        "torus:4x4x4", "mesh3d:4x4x4;bytes=4096", "random",
        {"buffer_bytes": 4096.0, "max_retries": 64,
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
        {"buffer_bytes": 8192.0, "max_retries": 64,
         "retry_jitter": 0.3, "seed": 11, "unroutable_policy": "drop",
         "bandwidth": 80.0}, (), "app"),
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
    "t444_random_dor", "t444_random_nic", "t444_random_drop_jitter",
    "t444_random_stall_window",
    "t444_livelock_raises",
    "t444_dor_link_fault", "t444_adaptive_link_fault", "t444_node_fault_drop",
    "t444_link_fault_buffered_jitter",
}


def _replay(kernel, name: str) -> dict:
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
        sim = NetworkSimulator(topology, **kwargs, kernel=kernel)
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
    'mesh444_random_dor': 'e98c7ba67a7588958309147cffdd9e37a5d86eb925beb5c8f1951fe6c09e6dd1',
    't444_adaptive_link_fault': '3f9f80a90a104f8f64421770c637cd64beabb1a39ae61a955ae0cefc7745c315',
    't444_dor_link_fault': '70b82af3c01db1220a2f23737fa3f80706ff4a7979dd91343cf57280db2a6735',
    't444_dor_link_fault_raises': '6210dfe66048e5791bb53aa90f60bf615912d4f608a5dbfa103fc4ca7f3e234f',
    't444_link_fault_buffered_jitter': '9b7fa43426c3fab7d9472ae09d9fdc044487512c57dc04d1146483e30083d1c2',
    't444_livelock_raises': '55b08b35ea292a0d8fbc2185492ddee7d9374225f9072021429df41b67239776',
    't444_node_fault_drop': '98f86c18505a49788787f25eea4d43bc2e6f3f2ab715b57d88bd58bc0882b3d2',
    't444_oversubscribed_local': 'dd2d6b5fa8aa9d9acaddf7425befe583b0c71bb49817379d5808d86bf0f7d5f8',
    't444_random_adaptive': 'be28a932abc20124c752011d2c4628d0852412447f39c6e1ca832fdf7cdb10da',
    't444_random_dor': '357b148f34bd5a7aae165f1323cc4ebd5ff608dba659aa07819d158ea48b34e1',
    't444_random_drop_adaptive_nic': 'cc6c9bb61e12a404c51510bb7ba059274f836a7e292b2c0bcccc805b7d8b4149',
    't444_random_drop_jitter': '59f9a1ef5ab1d019e5d546408bc950013f04bb0b812e90e76b7870f8f613475d',
    't444_random_nic': '340e975b867fdacd08db97f745b9063d9d4e5c10965c877f9d9205dcb6b9f20e',
    't444_random_stall_window': '1d6f479c4efc832e3143046cfd5b1ba3a9aeb6d7dfe1df66d1024801c524b982',
    't444_topolb_dor': '4f8bf6f5836895b394c503022451a878e256d38d8f8b74acb34133c01fec059b',
    't88_link_bandwidths': '02c87c48564d0e98fc19935d81aefa221fcf7fdca1376baca23196f51f6a42e0',
    't88_node_fault_dor': '925d94c64eac013532273e1ef7182ad898e27cb927d5add145261250f8f0afb2',
    't88_random_dor': 'cbf2a0780e634fd176a7aa86fa99a63274ddf8e243004cf561cd46d353edcb15',
    't88_random_drop_jitter': 'fe08fbcf602e3b6654dd76a8542fb79430a78fa964c7663867dc35a58fc788fa',
    't88_topolb_adaptive': '078328b7ac847b96474c992bb3ca0a8ceb05050e899feedc76b33bd53853e9e8',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_des_replay_is_bit_identical(name, kernel):
    assert _digest(_replay(kernel, name)) == DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case in sorted(CASES):
        print(f"    {case!r}: {_digest(_replay('reference', case))!r},")
