"""Kernel micro-benchmark: vectorized vs reference mapper paths.

CI's smoke job runs this to catch a vectorized-kernel performance
regression: the batched kernels exist *only* to be faster, so "vectorized
not slower than reference" is a hard invariant here (with a generous noise
margin — CI boxes are shared and single runs jitter). ``docs/PERFORMANCE.md``
documents the full measurement protocol behind the recorded
``BENCH_kernels_*.json`` artifacts; this file is the cheap sentinel, not
the recorded claim.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.mapping import RefineTopoLB, TopoLB
from repro.mapping.estimation import EstimatorOrder
from repro.taskgraph.random_graphs import geometric_taskgraph
from repro.topology import Torus

#: Allowed vectorized/reference wall-time ratio. Anything under 1.0 means
#: the vectorized path won; the slack only absorbs scheduler noise on the
#: shared CI runner (locally the ratio sits well below 0.5).
NOISE_MARGIN = 1.1

#: Smoke-scale copy of the recorded benchmark config (512 tasks there).
N_TASKS = 128


@pytest.fixture(scope="module")
def instance():
    graph = geometric_taskgraph(N_TASKS, radius=0.2, seed=42)
    topo = Torus((8, 4, 4))
    return graph, topo


def _best_of(fn, repeats: int = 3) -> float:
    """Min wall time over ``repeats`` runs — the standard noise filter for
    micro-benchmarks (the minimum is the least-contended run)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("order", [EstimatorOrder.SECOND, EstimatorOrder.THIRD])
def test_topolb_vectorized_not_slower(benchmark, instance, order):
    """The vectorized kernel must beat the reference: batched NumPy for
    second order, the compiled recentring pass for third."""
    graph, topo = instance
    ref = TopoLB(order=order, kernel="reference")
    vec = TopoLB(order=order, kernel="vectorized")
    # Warm the shared topology tables so neither kernel pays them.
    ref_mapping = ref.map(graph, topo)

    t_ref = _best_of(lambda: ref.map(graph, topo))
    t_vec = _best_of(lambda: vec.map(graph, topo))
    # Attach the vectorized run to pytest-benchmark's reporting (works with
    # and without --benchmark-disable).
    vec_mapping = benchmark.pedantic(
        vec.map, args=(graph, topo), rounds=1, iterations=1
    )

    np.testing.assert_array_equal(vec_mapping.assignment, ref_mapping.assignment)
    assert t_vec <= t_ref * NOISE_MARGIN, (
        f"vectorized TopoLB({order.name}) took {t_vec * 1e3:.1f} ms vs "
        f"reference {t_ref * 1e3:.1f} ms"
    )


def test_refine_native_not_slower(benchmark, instance):
    graph, topo = instance
    # Refine a TopoLB placement — how every registered pipeline invokes the
    # refiner.
    start = TopoLB().map(graph, topo)
    ref = RefineTopoLB(kernel="reference", seed=1)
    vec = RefineTopoLB(kernel="vectorized", seed=1)
    ref_mapping = ref.refine(start)

    t_ref = _best_of(lambda: ref.refine(start))
    t_vec = _best_of(lambda: vec.refine(start))
    vec_mapping = benchmark.pedantic(
        vec.refine, args=(start,), rounds=1, iterations=1
    )

    np.testing.assert_array_equal(vec_mapping.assignment, ref_mapping.assignment)
    assert t_vec <= t_ref * NOISE_MARGIN, (
        f"vectorized refine took {t_vec * 1e3:.1f} ms vs "
        f"reference {t_ref * 1e3:.1f} ms"
    )
