"""Ablation: phase-1 partitioner choice (multilevel vs greedy).

The paper is agnostic about the phase-1 partitioner ("any partitioning
algorithm can be used ... a method that reduces intergroup communication
must be preferred"). This bench quantifies how much the choice matters:
cut bytes, balance, wall-clock — and how the downstream mapping quality
(group hops-per-byte after TopoLB) responds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.mapping import TopoLB
from repro.partition import (
    GreedyPartitioner,
    MultilevelPartitioner,
    edge_cut_bytes,
    partition_imbalance,
)
from repro.taskgraph import coalesce, leanmd_taskgraph
from repro.topology import Torus

PARTITIONERS = {
    "greedy": lambda: GreedyPartitioner(),
    "multilevel": lambda: MultilevelPartitioner(seed=0),
}


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_partitioner_on_leanmd(benchmark, name):
    p = 32
    graph = leanmd_taskgraph(p, cells_shape=(4, 4, 4))
    part = PARTITIONERS[name]()
    groups = benchmark.pedantic(part.partition, args=(graph, p),
                                rounds=1, iterations=1)
    cut = edge_cut_bytes(graph, groups)
    imb = partition_imbalance(graph, np.asarray(groups), p)
    print(f"\n{name}: cut={cut:.3g} bytes, imbalance={imb:.3f}")


def test_partition_quality_flows_into_mapping(run_once):
    def measure():
        p = 32
        topo = Torus((4, 8))
        graph = leanmd_taskgraph(p, cells_shape=(4, 4, 4))
        out = {}
        for name, factory in PARTITIONERS.items():
            t0 = time.perf_counter()
            groups = np.asarray(factory().partition(graph, p))
            elapsed = time.perf_counter() - t0
            quotient = coalesce(graph, groups, p)
            hpb = TopoLB().map(quotient, topo).hops_per_byte
            out[name] = (elapsed, edge_cut_bytes(graph, groups), hpb)
        return out

    out = run_once(measure)
    print()
    for name, (t, cut, hpb) in out.items():
        print(f"{name}: {t:.2f}s, cut={cut:.3g}, group hops/byte={hpb:.3f}")
    # The comm-aware partitioner must cut far less than the load-only greedy;
    # cut bytes are the traffic the mapper then has to place.
    assert out["multilevel"][1] < out["greedy"][1]
