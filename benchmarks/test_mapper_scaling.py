"""Micro-benchmarks: mapper wall-clock scaling (the Section 4.4 complexity claims).

TopoCentLB is O(p |Et|) with heap selection; TopoLB (2nd order) is
O(p |Et|) amortized with the fest-table maintenance. These benches give the
empirical curve; the paper observes "closer to O(p^2)" for constant-degree
task graphs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.mapping import RandomMapper, RefineTopoLB, TopoCentLB, TopoLB, _native
from repro.partition import MultilevelPartitioner
from repro.taskgraph import leanmd_taskgraph, mesh2d_pattern
from repro.topology import Torus

SIDES = [8, 16, 24]


@pytest.mark.parametrize("side", SIDES)
def test_topolb_scaling(benchmark, side):
    topo = Torus((side, side))
    graph = mesh2d_pattern(side, side)
    mapping = benchmark(TopoLB().map, graph, topo)
    assert mapping.is_bijection()


@pytest.mark.parametrize("side", SIDES)
def test_topocentlb_scaling(benchmark, side):
    topo = Torus((side, side))
    graph = mesh2d_pattern(side, side)
    mapping = benchmark(TopoCentLB().map, graph, topo)
    assert mapping.is_bijection()


@pytest.mark.parametrize("side", [8, 16])
def test_refine_scaling(benchmark, side):
    topo = Torus((side, side))
    graph = mesh2d_pattern(side, side)
    base = RandomMapper(seed=0).map(graph, topo)
    refiner = RefineTopoLB(max_sweeps=2, seed=0)
    refined = benchmark(refiner.refine, base)
    assert refined.hop_bytes <= base.hop_bytes + 1e-9


def test_multilevel_partitioner_leanmd(benchmark):
    graph = leanmd_taskgraph(64)
    groups = benchmark(MultilevelPartitioner(seed=0).partition, graph, 64)
    assert len(set(groups.tolist())) == 64


PARTITIONER_MIN_SPEEDUP = 3.0


def test_partitioner_compiled_not_slower(monkeypatch):
    """The paper's phase 1 (LeanMD, 3,752 tasks into k = 512 groups) on the
    compiled bisection and FM pass must beat the list walk by 3x, median of
    five calls each, with the same groups."""
    if not _native.available():
        pytest.skip("no C compiler: the list walk is correct but not subject "
                    "to the speed gate")
    graph = leanmd_taskgraph(512)

    def median_s():
        MultilevelPartitioner().partition(graph, 512)  # warm caches
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            groups = MultilevelPartitioner().partition(graph, 512)
            times.append(time.perf_counter() - t0)
        return statistics.median(times), groups

    compiled, groups = median_s()
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    lists, want = median_s()
    np.testing.assert_array_equal(groups, want)
    assert compiled * PARTITIONER_MIN_SPEEDUP <= lists, (
        f"compiled phase 1 only {lists / compiled:.2f}x faster than the list "
        f"walk ({compiled * 1e3:.1f} ms vs {lists * 1e3:.1f} ms; gate: "
        f"{PARTITIONER_MIN_SPEEDUP}x)"
    )


def test_distance_matrix_construction(benchmark):
    def build():
        return Torus((16, 16, 4)).distance_matrix()

    mat = benchmark(build)
    assert mat.shape == (1024, 1024)
