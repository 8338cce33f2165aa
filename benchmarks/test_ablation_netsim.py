"""Ablation: network-model choices (cut-through at no load, NIC).

The introduction's premise: with wormhole/cut-through routing, *no-load*
latency barely depends on hop count — contention is what distance costs you.
This bench checks that regime and quantifies the NIC bottleneck's effect
(EXPERIMENTS.md model deviation #2).
"""

from __future__ import annotations

from repro.mapping import RandomMapper, TopoLB
from repro.netsim import IterativeApplication, NetworkSimulator
from repro.taskgraph import mesh2d_pattern
from repro.topology import Torus


def _mean_latency(mapping, bandwidth=500.0, nic=None):
    sim = NetworkSimulator(mapping.topology, bandwidth=bandwidth, alpha=0.1,
                           nic_bandwidth=nic)
    app = IterativeApplication(mapping, sim, iterations=10,
                               message_bytes=2048.0, compute_time=1.0)
    return app.run().mean_message_latency


def test_cut_through_hides_distance_at_no_load(run_once):
    """Uncontended single messages: cut-through latency grows only by
    alpha per hop — the paper's premise."""

    def measure():
        topo = Torus((16,))
        lats = []
        for dst in (1, 4, 8):
            sim = NetworkSimulator(topo, bandwidth=100.0, alpha=0.1)
            msg = sim.send(0, dst, 1000.0)
            sim.run()
            lats.append(msg.latency)
        return lats

    ct = run_once(measure)
    print(f"\ncut-through 1/4/8 hops: {ct}")
    # 8-hop vs 1-hop growth is tiny.
    assert ct[2] / ct[0] < 1.2


def test_nic_bottleneck_compresses_mapping_gain(run_once):
    """The per-node injection limit caps how much an optimal mapping can
    win on bandwidth alone (why Table 1's ratio plateaus near 2.7)."""

    def measure():
        topo = Torus((4, 4, 4))
        graph = mesh2d_pattern(8, 8)
        rand = RandomMapper(seed=0).map(graph, topo)
        opt = TopoLB().map(graph, topo)
        gains = {}
        for nic in (None, 200.0):
            gains[nic] = (
                _mean_latency(rand, bandwidth=100.0, nic=nic)
                / _mean_latency(opt, bandwidth=100.0, nic=nic)
            )
        return gains

    gains = run_once(measure)
    print(f"\nrandom/TopoLB latency ratio: no NIC {gains[None]:.2f}, "
          f"with NIC {gains[200.0]:.2f}")
    assert gains[200.0] < gains[None]
