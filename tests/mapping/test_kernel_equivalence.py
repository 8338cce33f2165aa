"""Vectorized-vs-reference kernel equivalence.

The vectorized kernels are only allowed to exist because they are *proven*
interchangeable with the scalar reference paths: every test here pins the
two to **bit-identical assignments** (not merely equal hop-bytes) across
estimator orders, selection rules, and instance shapes —
including symmetric instances whose massive score ties are where a batched
reimplementation would first diverge. RefineTopoLB's production kernel has
two paths — the compiled incremental sweep and, without a C compiler
(``REPRO_NO_NATIVE=1``), the NumPy block sweep — and both are pinned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import MappingError
from repro.engine.specs import mapper_from_spec
from repro.mapping import RandomMapper, RefineTopoLB, TopoLB
from repro.mapping.base import resolve_allowed
from repro.mapping.estimation import EstimatorOrder
from repro.mapping.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    get_default_kernel,
    resolve_kernel,
)
from repro.mapping import refine as refine_module
from repro.taskgraph import mesh2d_pattern, mesh3d_pattern, random_taskgraph
from repro.taskgraph.random_graphs import geometric_taskgraph
from repro.topology import Hypercube, Mesh, Torus

ORDERS = (EstimatorOrder.FIRST, EstimatorOrder.SECOND, EstimatorOrder.THIRD)
SELECTIONS = ("gain", "max_cost", "volume")


def _instances():
    """(label, graph, topology) shape grid.

    The torus/mesh pattern pairs are maximally symmetric — every row of the
    initial fest table ties with dozens of others, so any divergence in
    tie-breaking between the kernels shows up immediately. The random and
    geometric instances cover irregular degrees and weights.
    """
    return [
        ("torus4x4-mesh2d", mesh2d_pattern(4, 4), Torus((4, 4))),
        ("mesh2x3x2-mesh3d", mesh3d_pattern(2, 3, 2), Mesh((2, 3, 2))),
        ("hypercube16-random", random_taskgraph(16, edge_prob=0.35, seed=5),
         Hypercube(4)),
        ("torus4x4x2-geometric", geometric_taskgraph(32, radius=0.35, seed=9),
         Torus((4, 4, 2))),
    ]


class TestTopoLBEquivalence:
    @pytest.mark.parametrize("label,graph,topo",
                             _instances(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_assignments_bit_identical(self, label, graph, topo, order, selection):
        ref = TopoLB(order=order, selection=selection,
                     kernel="reference").map(graph, topo)
        vec = TopoLB(order=order, selection=selection,
                     kernel="vectorized").map(graph, topo)
        np.testing.assert_array_equal(
            vec.assignment, ref.assignment,
            err_msg=f"{label} order={order} selection={selection}",
        )

    def test_symmetric_tie_break_worst_case(self):
        """Fully symmetric instance: every initial fest row is identical, so
        the whole run is tie-breaking. The kernels must walk the exact same
        (value, id) order through all of it."""
        graph = mesh2d_pattern(4, 4, message_bytes=1.0)
        topo = Torus((4, 4))
        for order in ORDERS:
            ref = TopoLB(order=order, kernel="reference").map(graph, topo)
            vec = TopoLB(order=order, kernel="vectorized").map(graph, topo)
            np.testing.assert_array_equal(vec.assignment, ref.assignment)


def _block_sweep(monkeypatch, block_size: int) -> None:
    """Force the production kernel onto its NumPy block-sweep fallback with
    the given block size."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(refine_module, "_BLOCK_SIZE", block_size)


class TestRefineEquivalence:
    @pytest.mark.parametrize("block_size", (1, 7, 64, 512))
    def test_block_sweep_matches_reference(self, block_size, monkeypatch):
        graph = geometric_taskgraph(48, radius=0.3, seed=3)
        topo = Mesh((6, 8))
        # A random start leaves plenty of improving swaps, so the block
        # sweep's discard-and-restart machinery is exercised hard.
        start = RandomMapper(seed=11).map(graph, topo)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        _block_sweep(monkeypatch, block_size)
        vec = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(vec.assignment, ref.assignment)

    def test_incremental_matches_reference(self, monkeypatch):
        """The production kernel's compiled incremental sweep (when a C
        compiler is around) and its block-sweep fallback both land on the
        reference result."""
        graph = geometric_taskgraph(48, radius=0.3, seed=3)
        topo = Mesh((6, 8))
        start = RandomMapper(seed=11).map(graph, topo)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        native = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(native.assignment, ref.assignment)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        fallback = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(fallback.assignment, ref.assignment)

    def test_converged_input_is_noop_for_all(self):
        graph = mesh2d_pattern(4, 4)
        topo = Torus((4, 4))
        first = RefineTopoLB(kernel="reference", seed=0).refine(
            TopoLB().map(graph, topo))
        for kernel in KERNELS:
            again = RefineTopoLB(kernel=kernel, seed=0).refine(first)
            np.testing.assert_array_equal(
                again.assignment, first.assignment, err_msg=kernel)


class TestIncrementalNative:
    """The compiled incremental sweep and the block-sweep fallback are the
    production kernel's two paths; both must land bit-identically on the
    same result whether or not a C compiler is around."""

    def _instances(self):
        insts = [(geometric_taskgraph(48, radius=0.3, seed=3), Mesh((6, 8))),
                 (random_taskgraph(64, edge_prob=0.12, seed=8), Torus((8, 8))),
                 (mesh3d_pattern(4, 4, 4), Torus((4, 4, 4)))]
        return [(g, t, RandomMapper(seed=11).map(g, t)) for g, t in insts]

    def test_fallback_matches_native(self, monkeypatch):
        for graph, topo, start in self._instances():
            native = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
            with monkeypatch.context() as m:
                m.setenv("REPRO_NO_NATIVE", "1")
                fallback = RefineTopoLB(kernel="vectorized",
                                        seed=1).refine(start)
            np.testing.assert_array_equal(
                fallback.assignment, native.assignment)

    def test_native_loader_is_memoized_and_gated(self, monkeypatch):
        from repro.mapping import _native

        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert _native.load() is None
        assert not _native.available()
        monkeypatch.delenv("REPRO_NO_NATIVE")
        first = _native.load()
        if first is not None:  # no compiler on this host -> both stay None
            assert _native.load() is first
            assert _native.available()


class TestThirdOrderPaths:
    """Third-order TopoLB has its own cycle loop: a compiled
    recentre-and-argmin pass over the free columns, and a NumPy fallback
    (``REPRO_NO_NATIVE=1``). Both are pinned to the reference at a scale
    where every cycle recentres over a hundred rows, on a pristine and a
    degraded machine, down to the lazy-repair counters."""

    COUNTERS = ("topolb.cycles", "topolb.reserve_hits",
                "topolb.reserve_exhaustions", "topolb.rows_rebuilt",
                "topolb.neighbor_updates")

    @staticmethod
    def _instances():
        from repro.faults import DegradedTopology, FaultSet

        base = Torus((8, 4, 4))
        deg = DegradedTopology(
            base, FaultSet(dead_nodes=[3, 17, 64, 100], dead_links=[(0, 1)]))
        return [
            ("torus8x4x4", geometric_taskgraph(128, radius=0.2, seed=42), base),
            ("masked", geometric_taskgraph(deg.num_healthy, radius=0.2,
                                           seed=42), deg),
            ("masked-underfull", geometric_taskgraph(deg.num_healthy - 7,
                                                     radius=0.2, seed=7), deg),
        ]

    def _map(self, graph, topo, selection, kernel):
        with obs.profiled() as prof:
            mapping = TopoLB(order=EstimatorOrder.THIRD, selection=selection,
                             kernel=kernel).map(graph, topo)
        return mapping.assignment, {c: prof.counters[c] for c in self.COUNTERS}

    @pytest.mark.parametrize("label,graph,topo", _instances(),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("selection", SELECTIONS)
    @pytest.mark.parametrize("native", ("compiled", "numpy"))
    def test_bit_identical_with_equal_counters(self, label, graph, topo,
                                               selection, native,
                                               monkeypatch):
        ref, ref_counters = self._map(graph, topo, selection, "reference")
        if native == "numpy":
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        vec, vec_counters = self._map(graph, topo, selection, "vectorized")
        np.testing.assert_array_equal(
            vec, ref, err_msg=f"{label} selection={selection} {native}")
        assert vec_counters == ref_counters
        allowed = resolve_allowed(topo, None)
        if allowed is not None:
            assert allowed[vec].all()

    def test_compiled_pass_skips_consumed_columns_and_checks_sizes(self):
        from repro.mapping import _native

        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        fest = np.zeros((4, 6))
        rows = np.arange(4)
        uc, f_min = np.ones(4), np.zeros(4)
        delta = np.arange(6.0, 0.0, -1.0)
        argmin = np.zeros(4, dtype=np.int64)
        native.topolb3_recentre(fest, rows, uc, delta, np.arange(1, 6), f_min,
                                argmin)
        np.testing.assert_array_equal(argmin, 5)
        np.testing.assert_array_equal(fest[:, 0], 0.0)  # consumed: stale
        for free_ids, d in ((np.arange(0), delta), (np.arange(6), uc)):
            with pytest.raises(ValueError):
                native.topolb3_recentre(fest, rows, uc, d, free_ids, f_min,
                                        argmin)


class TestMaskedEquivalence:
    """The allowed-processor mask (degraded machines) preserves equivalence."""

    def _degraded(self):
        from repro.faults import DegradedTopology, FaultSet

        base = Torus((4, 4))
        faults = FaultSet(dead_nodes=[5, 10], dead_links=[(0, 1)])
        return DegradedTopology(base, faults)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_topolb_masked_bit_identical(self, order, selection):
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=2)
        ref = TopoLB(order=order, selection=selection,
                     kernel="reference").map(graph, deg)
        vec = TopoLB(order=order, selection=selection,
                     kernel="vectorized").map(graph, deg)
        np.testing.assert_array_equal(
            vec.assignment, ref.assignment,
            err_msg=f"masked order={order} selection={selection}",
        )
        assert deg.allowed_mask()[vec.assignment].all()

    def test_topolb_masked_underfull(self):
        """Fewer tasks than healthy processors (n < p')."""
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy - 3, edge_prob=0.3, seed=4)
        ref = TopoLB(kernel="reference").map(graph, deg)
        vec = TopoLB(kernel="vectorized").map(graph, deg)
        np.testing.assert_array_equal(vec.assignment, ref.assignment)

    @pytest.mark.parametrize("block_size", (1, 7, 64))
    def test_refine_masked_bit_identical(self, block_size, monkeypatch):
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=6)
        start = RandomMapper(seed=11).map(graph, deg)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        _block_sweep(monkeypatch, block_size)
        vec = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(vec.assignment, ref.assignment)
        assert deg.allowed_mask()[vec.assignment].all()

    def test_refine_masked_incremental(self, monkeypatch):
        """Masked run: the compiled sweep and the block-sweep fallback both
        match the reference kernel."""
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=6)
        start = RandomMapper(seed=11).map(graph, deg)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        native = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(native.assignment, ref.assignment)
        assert deg.allowed_mask()[native.assignment].all()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        fallback = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(fallback.assignment, ref.assignment)


class TestKernelSelection:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(MappingError):
            TopoLB(kernel="simd")
        with pytest.raises(MappingError):
            RefineTopoLB(kernel="fortran")
        with pytest.raises(MappingError):
            resolve_kernel("nope")

    def test_default_kernel_resolution(self):
        assert KERNELS == ("vectorized", "reference")
        assert DEFAULT_KERNEL == get_default_kernel() == "vectorized"
        # kernel=None resolves to the default at construction time;
        # explicit names always win.
        assert TopoLB().kernel == "vectorized"
        assert RefineTopoLB().kernel == "vectorized"
        assert TopoLB(kernel="reference").kernel == "reference"
        assert RefineTopoLB(kernel="reference").kernel == "reference"

    def test_kernel_argument_validates(self):
        with pytest.raises(MappingError):
            mapper_from_spec("topolb", 0, kernel="scalar")
        # Rejected even by a spec that runs no kernel-bearing mapper.
        with pytest.raises(MappingError):
            mapper_from_spec("random", 0, kernel="incremental")

    def test_kernel_fixed_at_construction(self):
        assert mapper_from_spec("topolb", 0).kernel == "vectorized"
        assert mapper_from_spec("topolb", 0, kernel="reference").kernel \
            == "reference"
        # An explicit kernel= option in the spec wins over the argument.
        assert mapper_from_spec("topolb:kernel=vectorized", 0,
                                kernel="reference").kernel == "vectorized"


class TestKernelArgumentReachesNestedMappers:
    """``ParsedSpec.build(seed, kernel)`` hands the kernel to every mapper a
    spec builds inside another one."""

    def test_multilevel_inner_and_level_refiners(self, monkeypatch):
        from repro.engine.specs import parse_mapper_spec

        mapper = parse_mapper_spec("multilevel:inner=topolb").build(
            0, kernel="reference")
        assert mapper._inner.kernel == "reference"
        assert parse_mapper_spec("multilevel").build(
            0, kernel="reference")._inner.kernel == "reference"

        # Run one with enough levels to refine, recording every per-level
        # refiner's kernel.
        seen = []
        real = RefineTopoLB.refine

        def spy(self, *args, **kwargs):
            seen.append(self.kernel)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(RefineTopoLB, "refine", spy)
        parse_mapper_spec("multilevel:inner=topolb;stop=16").build(
            0, kernel="reference").map(mesh2d_pattern(8, 8), Torus((8, 8)))
        assert seen and set(seen) == {"reference"}

    def test_explicit_nested_option_wins(self):
        refiner = mapper_from_spec("refine:base=topolb:kernel=reference", 0,
                                   kernel="vectorized")
        assert refiner.kernel == "vectorized"
        assert refiner._base.kernel == "reference"

    def test_every_composition_forwards_the_kernel(self):
        pipe = mapper_from_spec("RefineTopoLB", 0, kernel="reference")
        assert pipe._mapper.kernel == "reference"
        assert pipe._refiner.kernel == "reference"
        assert mapper_from_spec("pipeline", 0,
                                kernel="reference")._mapper.kernel == "reference"
        refiner = mapper_from_spec("refine:base=topolb", 0, kernel="reference")
        assert refiner.kernel == refiner._base.kernel == "reference"
        hybrid = mapper_from_spec("hybrid", 0, kernel="reference")
        assert hybrid._kernel == "reference"
