"""Figures 7 & 8 — average message latency vs link bandwidth.

The paper replays a 2D-Jacobi trace (64 chares) on a (4,4,4) 3D-torus in
BigNetSim, sweeping channel bandwidth 100–1000 MB/s, under GreedyLB
(essentially random placement), TopoCentLB and TopoLB. Figure 7 shows the
congested region: random latency explodes as bandwidth shrinks; Figure 8
zooms into the uncongested region where TopoLB still has the lowest latency.

Shape criteria: latency ordering TopoLB < TopoCentLB < random at every
bandwidth; the random curve blows up fastest as bandwidth decreases.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.mapping.base import Mapping
from repro.netsim.appsim import IterativeApplication
from repro.netsim.simulator import NetworkSimulator
from repro.engine import mapper_from_spec
from repro.taskgraph.patterns import mesh2d_pattern
from repro.topology.torus import Torus

__all__ = ["run", "simulate_latency"]

#: Channel bandwidths in bytes/us (== MB/s), the paper's 100..1000 sweep.
QUICK_BANDWIDTHS = (100.0, 200.0, 400.0, 700.0, 1000.0)
FULL_BANDWIDTHS = tuple(float(b) for b in range(100, 1001, 100))

STRATEGIES = ("GreedyLB", "TopoCentLB", "TopoLB")

MESSAGE_BYTES = 2048.0
COMPUTE_US = 2.0


def simulate_latency(
    mapping: Mapping,
    bandwidth: float,
    iterations: int,
    message_bytes: float = MESSAGE_BYTES,
    compute_time: float = COMPUTE_US,
    alpha: float = 0.1,
):
    """Replay the Jacobi trace through the DES at one bandwidth; returns the
    :class:`~repro.netsim.appsim.AppResult`."""
    sim = NetworkSimulator(mapping.topology, bandwidth=bandwidth, alpha=alpha)
    app = IterativeApplication(
        mapping, sim, iterations=iterations,
        message_bytes=message_bytes, compute_time=compute_time,
    )
    return app.run()


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Reproduce Figures 7/8 (one row per bandwidth, one column per strategy)."""
    iterations = 30 if quick else 200
    topo = Torus((4, 4, 4))
    graph = mesh2d_pattern(8, 8, message_bytes=MESSAGE_BYTES)
    mappings = {
        name: mapper_from_spec(name, seed).map(graph, topo) for name in STRATEGIES
    }
    rows = []
    for bw in QUICK_BANDWIDTHS if quick else FULL_BANDWIDTHS:
        row: dict = {"bandwidth_MBps": bw}
        for name, mapping in mappings.items():
            result = simulate_latency(mapping, bw, iterations)
            row[f"{name}_latency_us"] = result.mean_message_latency
        rows.append(row)
    return ExperimentResult(
        "fig7_8",
        "2D-mesh on 64-node 3D-torus: average message latency vs bandwidth",
        rows,
        notes="paper: random(GreedyLB) latency explodes first as bandwidth "
        "shrinks; TopoLB lowest everywhere, TopoCentLB in between",
    )
